(** Pipelined virtual-channel router simulator (credit-based flow control).

    Where {!Wormhole_sim} is the minimal operational model of the paper's
    §3 (one event kind per cycle, no router internals), this simulator
    models the canonical VC router microarchitecture a NoC practitioner
    would expect:

    - per-virtual-channel input FIFOs of configurable depth;
    - a per-VC state machine Idle → Routing → Waiting-for-VC → Active;
    - route computation evaluates the algorithm's relation when the header
      reaches the FIFO head;
    - virtual-channel allocation with per-output round-robin arbitration
      (a VC is owned from allocation until its tail flit leaves, exactly
      the paper's buffer-occupancy notion);
    - switch allocation: one flit per physical link per cycle, round-robin
      across competing virtual channels;
    - credit-based flow control with one-cycle credit return;
    - one consumption port per node.

    Deadlock detection is {!Drive}'s stall rule, as for the flit
    simulator.  Latencies are higher than {!Wormhole_sim}'s by the
    pipeline constants; deadlock behaviour must agree (tested). *)

open Dfr_network
open Dfr_routing

type config = {
  fifo_depth : int;  (** flits per virtual-channel FIFO *)
  max_cycles : int;
  seed : int;
}

val default_config : config
(** depth 4, 200_000 cycles, seed 1. *)

val run : ?config:config -> Net.t -> Algo.t -> Traffic.t -> Drive.outcome
