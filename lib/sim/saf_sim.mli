(** Packet-level store-and-forward / virtual-cut-through simulator.

    Packets occupy exactly one whole-packet buffer at a time (§3's model:
    the brief double-occupancy during a transfer is collapsed to an atomic
    move).  One packet moves per buffer per cycle; arbitration rotates for
    fairness.  Deadlock detection is {!Drive}'s stall rule. *)

open Dfr_network
open Dfr_routing

type config = { max_cycles : int; seed : int }

val default_config : config
(** 100_000 cycles, seed 1. *)

val run : ?config:config -> Net.t -> Algo.t -> Traffic.t -> Drive.outcome

val run_preloaded :
  ?config:config -> Net.t -> Algo.t -> Drive.preload list -> Drive.outcome
(** Seat one packet per preload and try to drain.  Each chain must hold
    exactly one buffer, else [Invalid_argument]. *)
