(** Buffers: the universal resource of the paper's system model.

    Every resource a packet can block on is a buffer — the flit buffer of a
    wormhole virtual channel, or a whole-packet buffer of a
    store-and-forward / virtual-cut-through node.  Injection and delivery
    buffers complete the model exactly as in §3 of the paper: they exist so
    that "packet injected" and "packet consumed" are ordinary buffer
    transfers. *)

open Dfr_topology

type kind =
  | Injection of int  (** node *)
  | Delivery of int  (** node *)
  | Channel of {
      src : int;
      dst : int;
      dim : int;
      dir : Topology.direction;
      vc : int;  (** virtual-channel index on the physical link *)
    }  (** a unidirectional wormhole virtual channel *)
  | Node_buffer of { node : int; cls : int }
      (** a whole-packet buffer of a SAF/VCT node; [cls] is the buffer
          class (e.g. the Two-Buffer algorithm's A = 0 and B = 1) *)

type t = { id : int; kind : kind }

val id : t -> int
val kind : t -> kind

val head_node : t -> int
(** The node where the head of a packet occupying this buffer resides:
    the channel's destination endpoint, or the owning node otherwise. *)

val source_node : t -> int
(** The node a packet sits at immediately before acquiring this buffer
    (a channel's source endpoint; the owning node otherwise). *)

val is_injection : t -> bool
val is_delivery : t -> bool
val is_transit : t -> bool
(** Channel or node buffer — a resource deadlocks can form over. *)

val vc : t -> int option
(** Virtual-channel index for channels, [None] otherwise. *)

val cls : t -> int option
(** Buffer class for node buffers, [None] otherwise. *)

val describe : Topology.t -> t -> string
(** Human-readable name in the paper's notation, e.g. ["B2+^1@(0,1)"] for
    virtual channel 2 in the positive direction of dimension 1 leaving node
    (0,1). *)
