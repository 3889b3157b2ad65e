(** Buffer-level networks: a topology elaborated into the full set of
    buffers the paper's model reasons about.

    A wormhole network has [vcs] virtual channels per directed physical
    channel; a store-and-forward or virtual-cut-through network has
    [classes] whole-packet buffers per node.  Every node additionally gets
    one injection and one delivery buffer (§3 of the paper).  [custom]
    builds irregular networks — e.g. Duato's incoherent example of Figure 1,
    which needs parallel links — from an explicit channel list. *)

open Dfr_topology

type switching = Store_and_forward | Virtual_cut_through | Wormhole

type t

val wormhole : Topology.t -> vcs:int -> t
(** Virtual channels are numbered [0 .. vcs-1]; the paper's [B1] is
    [vc = 0] and [B2] is [vc = 1]. *)

val store_and_forward : Topology.t -> classes:int -> t
val virtual_cut_through : Topology.t -> classes:int -> t

val custom :
  name:string ->
  switching:switching ->
  num_nodes:int ->
  channels:(int * int * int) list ->
  t
(** [custom ~name ~switching ~num_nodes ~channels] builds a network from
    explicit directed channels [(src, dst, vc)].  Channels are created in
    list order; [find_custom_channel] retrieves them by the same triple.
    The [dim]/[dir] metadata of custom channels is the channel's position
    in the list and [Plus]. *)

val name : t -> string
val switching : t -> switching
val num_nodes : t -> int
val num_buffers : t -> int

val topology : t -> Topology.t option
val topology_exn : t -> Topology.t
(** Raises [Invalid_argument] on {!custom} networks. *)

val buffer : t -> int -> Buf.t
(** Buffer by id; ids are dense in [0, num_buffers). *)

val buffers : t -> Buf.t array
(** The underlying array; callers must not mutate it. *)

val injection : t -> int -> Buf.t
(** Injection buffer of a node. *)

val delivery : t -> int -> Buf.t

val channel : t -> src:int -> dim:int -> dir:Topology.direction -> vc:int -> Buf.t
(** The virtual-channel buffer leaving [src] along [(dim, dir)], by one
    array index.  Raises [Not_found] when the topology has no such
    channel, a coordinate is out of range, or the network is not wormhole
    (custom ones included). *)

val node_buffer : t -> node:int -> cls:int -> Buf.t
(** The class-[cls] packet buffer of a node (SAF/VCT networks), by one
    array index.  Raises [Not_found]. *)

val find_custom_channel : t -> src:int -> dst:int -> vc:int -> Buf.t
(** Channel lookup for {!custom} networks, by hashing: elaboration and
    two custom routings call it. Raises [Not_found]. *)

val channels_from : t -> int -> Buf.t list
(** All channel buffers whose source endpoint is the given node. *)

val transit_buffers : t -> Buf.t list
(** All channel and node buffers (the deadlock-relevant resources). *)

val vcs : t -> int
(** Virtual channels per physical channel (wormhole), or buffer classes per
    node (SAF/VCT). *)

val describe_buffer : t -> int -> string
(** Paper-style name of a buffer ([B1+^2@(0,1)], [A@(2,3)], [inj@(0,0)]...);
    falls back to ids for custom networks. *)
