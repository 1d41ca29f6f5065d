type buf = { id : int; addr : int; size : int }

type t = {
  blit_out_at : off:int -> dst:bytes -> dst_off:int -> len:int -> unit;
  blit_in_at : off:int -> src:bytes -> src_off:int -> len:int -> unit;
  base_addr : int;
  n : int;
  bsize : int;
  free_ids : int Queue.t;
  allocated : bool array;
}

let region_size ~count ~buf_size = count * buf_size

let create ~blit_out ~blit_in ~base_addr ~count ~buf_size =
  if count <= 0 || buf_size <= 0 then invalid_arg "Bufpool.create";
  let free_ids = Queue.create () in
  for i = 0 to count - 1 do Queue.push i free_ids done;
  { blit_out_at = blit_out; blit_in_at = blit_in; base_addr; n = count; bsize = buf_size; free_ids; allocated = Array.make count false }

let count t = t.n
let buf_size t = t.bsize

let mk t id = { id; addr = t.base_addr + (id * t.bsize); size = t.bsize }

let alloc t =
  match Queue.take_opt t.free_ids with
  | None -> None
  | Some id ->
    t.allocated.(id) <- true;
    Some (mk t id)

let free t id =
  if id >= 0 && id < t.n && t.allocated.(id) then begin
    t.allocated.(id) <- false;
    Queue.push id t.free_ids
  end

let get t id = if id >= 0 && id < t.n && t.allocated.(id) then Some (mk t id) else None

let in_use t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.allocated

let check b ~off ~len =
  if off < 0 || len < 0 || off + len > b.size then invalid_arg "Bufpool: out of bounds"

let blit_out t b ~off ~dst ~dst_off ~len =
  check b ~off ~len;
  t.blit_out_at ~off:((b.id * t.bsize) + off) ~dst ~dst_off ~len

let read t b ~off ~len =
  let dst = Bytes.create len in
  blit_out t b ~off ~dst ~dst_off:0 ~len;
  dst

let write t b ~off data =
  let len = Bytes.length data in
  check b ~off ~len;
  t.blit_in_at ~off:((b.id * t.bsize) + off) ~src:data ~src_off:0 ~len
