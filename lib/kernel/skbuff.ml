type t = {
  mutable data : bytes;
  mutable csum_verified : bool;
  mutable shared_with_driver : bool;
  mutable refresh : (unit -> bytes) option;
  mutable recycle : (unit -> unit) option;
}

let of_bytes data =
  { data; csum_verified = false; shared_with_driver = false; refresh = None; recycle = None }

let copy t =
  { data = Bytes.copy t.data;
    csum_verified = t.csum_verified;
    shared_with_driver = false;
    refresh = None;
    recycle = None }

let recycle t =
  match t.recycle with
  | None -> ()
  | Some f ->
    (* Clear before calling: the hook must fire at most once even if the
       stack reaches end-of-life through two paths (delivery + drop). *)
    t.recycle <- None;
    f ()

let length t = Bytes.length t.data

let checksum_sub b ~off ~len =
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + (Char.code (Bytes.get b !i) lsl 8) + Char.code (Bytes.get b (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(* Word-at-a-time internet checksum.  RFC 1071 §2(B): the ones'-
   complement sum is byte-order independent, so we accumulate unaligned
   little-endian 16-bit loads (four per iteration) and byte-swap the
   folded sum once at the end — same result as the byte-pair reference
   loop above at a fraction of the per-byte work. *)
let checksum_sub_words b ~off ~len =
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    sum :=
      !sum
      + Bytes.get_uint16_le b !i
      + Bytes.get_uint16_le b (!i + 2)
      + Bytes.get_uint16_le b (!i + 4)
      + Bytes.get_uint16_le b (!i + 6);
    i := !i + 8
  done;
  while !i + 2 <= stop do
    sum := !sum + Bytes.get_uint16_le b !i;
    i := !i + 2
  done;
  (* A trailing odd byte is the high byte of a zero-padded big-endian
     word, which in the little-endian accumulator is the low byte. *)
  if !i < stop then sum := !sum + Char.code (Bytes.get b !i);
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  let swapped = ((!sum land 0xFF) lsl 8) lor (!sum lsr 8) in
  lnot swapped land 0xFFFF

let checksum b = checksum_sub_words b ~off:0 ~len:(Bytes.length b)

(* The fused defensive-copy + checksum pass (paper §3.1.2): one memcpy
   of the untrusted source into a private destination, then the verdict
   folded over the *copy*.  Computing on the copy is what makes the
   result TOCTOU-safe — a driver mutating the source afterwards can no
   longer change either the delivered bytes or the verdict. *)
let copy_and_checksum ~src ~src_off ~dst ~dst_off ~len =
  Bytes.blit src src_off dst dst_off len;
  checksum_sub_words dst ~off:dst_off ~len

module Mac = struct
  let broadcast = Bytes.make 6 '\xff'

  let equal = Bytes.equal

  let pp fmt m =
    for i = 0 to 5 do
      if i > 0 then Format.pp_print_char fmt ':';
      Format.fprintf fmt "%02x" (Char.code (Bytes.get m i))
    done

  let of_string s =
    let parts = String.split_on_char ':' s in
    if List.length parts <> 6 then invalid_arg "Mac.of_string";
    let b = Bytes.create 6 in
    List.iteri (fun i p -> Bytes.set b i (Char.chr (int_of_string ("0x" ^ p)))) parts;
    b
end
