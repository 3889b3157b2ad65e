(** Name-indexed catalogue of every routing algorithm in the toolkit,
    with the network shape each one runs on.  Shared by the CLI, the test
    suite and the benchmark harness. *)

open Dfr_topology
open Dfr_network

type family =
  | Hypercube_family  (** wormhole, 2 VCs, binary cube *)
  | Mesh_family of { vcs : int }  (** wormhole mesh *)
  | Torus_family of { vcs : int }
  | Mesh_saf_family of { classes : int }
  | Hop_class_family
      (** store-and-forward mesh with one class per hop:
          [max 7 (diameter + 1)] classes *)
  | Vct_family of { classes : int }
  | Fullmesh_family  (** wormhole, 1 VC, fully connected *)
  | Dragonfly_family  (** wormhole, 2 VCs, palmtree dragonfly *)
  | Fattree_family  (** wormhole, 2 VCs, k-ary n-tree *)
  | Custom_family  (** fixed network, topology argument ignored *)

type entry = {
  name : string;
  family : family;
  algo : Algo.t;
  expected_deadlock_free : bool option;
      (** ground truth for tests and the verdict matrix; [None] when the
          literature gives no answer *)
  description : string;
}

val all : entry list
val find : string -> entry option
val names : unit -> string list

val network_for : entry -> Topology.t option -> Net.t
(** Builds the right network kind for the entry; [None] selects a small
    default topology.  Raises [Invalid_argument] when the topology does not
    fit the family. *)

val default_topology : entry -> Topology.t option
(** The default used by {!network_for}; [None] for custom-network entries. *)
