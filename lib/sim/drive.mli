(** The one simulation loop below the three models.

    {!Wormhole_sim}, {!Saf_sim} and {!Router_sim} each describe only
    their model: what one cycle does, and a tally of their packets.  This
    module runs the cycles, applies the one stall rule, collects the
    run's statistics and builds the one {!outcome}.

    {b The stall rule.}  Injection, movement and consumption are the only
    events.  A cycle in which none fires, while packets are in flight and
    none is still due to enter, leaves the network exactly as it was, so
    no later cycle can fire one either: waiting injections only add load,
    they free nothing.  Three consecutive such silent cycles end the run
    as a deadlock (THEORY.md §3); a cycle with an event, or a silent one
    while some packet is still due, resets the count. *)

type preload = {
  chain : int list;  (** occupied buffers, tail first, header's buffer last *)
  dest : int;
  frozen : bool;
      (** a frozen packet holds its buffers and never moves — the paper's
          "arbitrarily long" filler packets from the Theorem 2 necessity
          construction *)
}
(** A packet seated directly into the network, for witness replay. *)

type outcome =
  | Completed of Stats.t  (** every packet that can move was delivered *)
  | Deadlocked of {
      cycle : int;
      in_flight : int;
      stats : Stats.t;
      wait_for : (int * int) list option;
          (** the packet wait-for graph at stall time, for models that
              keep one: [(p, q)] means packet [p] (index into the
              workload) is blocked on a buffer owned by packet [q] — the
              dynamic counterpart of the BWG *)
    }
  | Timeout of Stats.t  (** max_cycles elapsed with traffic still moving *)

type tally = {
  unfinished : bool;  (** some packet that can move is not yet delivered *)
  pending : bool;
      (** some such packet has not entered the network and is not yet due:
          its injection cycle lies ahead *)
  in_flight : int;  (** reported when the run ends in a deadlock *)
}

type progress = {
  inject_at : int;
  injected : bool;  (** the packet has entered the network *)
  flits : int;  (** flits consumed at its destination *)
  finished : int option;  (** the cycle its last flit was consumed *)
}
(** One packet's accounting, for the run's {!Stats.t}. *)

type model = {
  name : string;  (** the [sim.<name>.run] span and [sim.<name>.*] counters *)
  max_cycles : int;
  step : int -> int;
      (** [step cycle] runs one cycle and returns the events that fired *)
  tally : int -> tally;  (** [tally cycle], read after [step cycle] *)
  progress : unit -> progress array;  (** every packet, in workload order *)
  wait_for : (int -> (int * int) list) option;
      (** [wait_for cycle]: the wait-for graph at a deadlock *)
}

val run : model -> outcome
(** Steps cycles [0, 1, ...] until the tally reports no unfinished
    packet ([Completed] at that cycle), the third consecutive silent cycle
    ([Deadlocked] at it), or [max_cycles] ([Timeout], stats collected at
    [max_cycles]).  Records the run under the model's name: the
    [sim.<name>.{cycles,events,stalls}] counters (stalls: cycles in
    which no event fired) and a [sim.<name>.flits-per-kcycle] gauge; no-op while
    {!Dfr_obs.Obs} is disabled. *)

val transit_route :
  Dfr_network.Net.t -> Dfr_routing.Algo.t -> Dfr_network.Buf.t -> dest:int -> int list
(** The relation's outputs from a buffer, delivery buffers left out. *)

val link_key : Dfr_network.Net.t -> int -> (int * int * int) option
(** The physical link a flit crosses when it enters this channel buffer:
    virtual channels of one link share it; node buffers and endpoint
    buffers are not link-constrained ([None]). *)

val is_deadlocked : outcome -> bool
val stats : outcome -> Stats.t
val pp_outcome : Format.formatter -> outcome -> unit
