(** The one place a workload meets a simulator: {!run} picks
    {!Wormhole_sim} or {!Saf_sim} from the network's switching, and every
    outcome renders to the same JSON report shape (always valid JSON,
    even for an idle run: see {!Stats.to_json}). *)

open Dfr_network
open Dfr_routing

type result = {
  deadlocked : bool;
  report : Dfr_util.Json.t;
      (** [simulator], [outcome], the deadlock fields when stuck, [stats] *)
  text : string;  (** the simulator's one-line [pp_outcome] *)
  p100 : int option;
      (** worst delivered latency of a completed wormhole run; [None] for
          SAF/VCT and router runs and for runs that did not complete *)
}

val run : Net.t -> Algo.t -> Traffic.t -> result
(** Default simulator configuration. *)

val of_router : nodes:int -> Router_sim.outcome -> result
(** The same rendering for a {!Router_sim} run, which stays a separate
    opt-in model ([simulate --router]). *)
