(** Flit-level wormhole simulator.

    Implements the paper's §3 system model operationally: virtual channels
    are small flit buffers, a packet spans a chain of them, a blocked
    packet keeps the whole chain, one flit crosses each physical link per
    cycle (virtual channels multiplex it), and a packet arriving at its
    destination is consumed at one flit per cycle.  Injection, movement and
    consumption are the only events, so {!Drive}'s stall rule detects
    deadlock {e exactly}.

    Packets route adaptively through the algorithm's relation, or follow a
    script first (witness replay); {!run_preloaded} instead places packets
    directly into a checker-produced deadlock configuration and verifies
    the network cannot drain it. *)

open Dfr_network
open Dfr_routing

type selection = First_free | Random_free

type config = {
  capacity : int;  (** flits per virtual-channel buffer *)
  max_cycles : int;
  seed : int;
  selection : selection;
}

val default_config : config
(** capacity 4, 100_000 cycles, seed 1, random selection. *)

val run : ?config:config -> Net.t -> Algo.t -> Traffic.t -> Drive.outcome
(** A [Deadlocked] outcome carries the packet wait-for graph. *)

val run_preloaded :
  ?config:config -> Net.t -> Algo.t -> Drive.preload list -> Drive.outcome
(** Seats each packet on its chain (every buffer filled with its flits)
    and lets the network run.  [Deadlocked] confirms the configuration is
    genuinely stuck; [Completed] means the unfrozen packets drained and
    refutes it. *)
