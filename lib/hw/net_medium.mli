(** A full-duplex point-to-point (or small switched) Ethernet segment.

    Frames experience serialization delay at the sender's line rate plus
    propagation latency, which is what bounds streaming throughput at
    ~1 Gb/s in the Figure 8 benchmarks regardless of driver placement. *)

type t
type port

val create : Engine.t -> ?rate_bps:int -> ?latency_ns:int -> unit -> t
(** Defaults: 1 Gb/s, 20 us propagation latency. *)

val attach : t -> name:string -> rx:(bytes -> unit) -> port
(** Add a station.  [rx] is invoked (via the engine) for every frame sent
    by any other station.  Every receiver of a frame gets the same buffer,
    so [rx] must not mutate it. *)

val set_rx : port -> (bytes -> unit) -> unit
(** Replace the receive callback (used when a NIC is reset/reopened). *)

val send : t -> port -> bytes -> unit
(** Transmit a frame from this port to all other ports.  Frames shorter
    than 60 bytes are padded to the Ethernet minimum for timing purposes.
    [send] takes ownership of the buffer: it is handed to every other
    port without a copy, so the caller must not mutate it afterwards. *)

val frames_sent : t -> int
val bytes_sent : t -> int

val frame_time_ns : t -> bytes:int -> int
(** Serialization delay of a frame of the given size at line rate. *)
