(** Incremental re-checking sessions for edit-heavy traffic.

    A session holds one {!Bwg.Session} over the checked instance — each
    destination's (occupied buffer, waiting head) groups, a count of live
    emissions per BWG edge, and the Theorem-1 rank certificate — over
    its state table, whose slices record their stuck and wait-less
    states.  An edit with a known dirty destination frontier
    ({!Dfr_spec.Diff} for spec edits) replaces only those destinations'
    slices ({!State_space.with_updated_dests}, records included, then
    {!Bwg.Session.update}) and re-decides: one {!Checker.decide}, the
    cold pipeline itself, on those records and the session's live BWG
    ({!Bwg.Session.bwg}), which no BWG copy precedes.
    Stuck states, a wait-unconnected state and an acyclic BWG (Theorem 1,
    read off the session's rank) are decided in O(edit), before any
    cycle work; anything else goes on to the knot search and the cycle
    stages.

    Either way the rendered report is bit-for-bit identical to what a
    cold [Checker.check] + [Report_json.of_outcome] of the edited
    algorithm produces (tested by randomized edit replay).  Soundness of
    the reuse requires the caller's [dirty] set to cover every
    destination whose routing relation changed; destinations outside it
    are assumed — not re-checked — to be untouched. *)

open Dfr_network
open Dfr_routing

type t

type path =
  | Fast
      (** [Stuck_states], [Not_wait_connected] or [Acyclic_bwg]: decided
          before the knot, cycle-scan and classify stages *)
  | Replay  (** any other verdict: knot search, then the cycle stages *)

type result = {
  report : Dfr_util.Json.t;  (** byte-identical to the cold report *)
  exit_code : int;  (** {!Report_json.exit_code} of the verdict *)
  path : path;
  dirty_dests : int;
  reused_dests : int;
}

type counters = {
  updates : int;
  fast_verdicts : int;
  replays : int;
  patched_dests : int;
      (** dirty destinations patched by the wait-only quick path *)
  reemitted_dests : int;
      (** dirty destinations that re-ran the full emission closure *)
}

val create : ?domains:int -> Net.t -> Algo.t -> t * result
(** Cold-build a session: state space, one group capture per
    destination (over [domains] pool workers), merged graph, and the
    initial verdict.  Every verdict runs the pipeline under a cold
    {!Checker.check}'s default caps.
    Raises [Invalid_argument] when {!State_space.build} refuses the
    pair. *)

val update : t -> Algo.t -> dirty:int list -> result
(** Re-check after an edit touching only the listed destinations.
    Within each dirty destination, an edit that leaves the routes
    untouched and gives no empty waiting set entries keeps the
    destination's groups, patching its counts in O(its emissions);
    anything else re-runs that destination's closures.  The caller
    warrants the frontier (see module doc); spec edits get it from
    {!Dfr_spec.Diff.diff}.  The dirty destinations'
    reachable states are validated as a cold build validates them
    ({!State_space.with_updated_dests}).  Raises [Invalid_argument] on an
    out-of-range destination, when the edit is malformed on a reachable
    state (with the message a cold {!State_space.build} of it gives), or
    when it introduces a [reduced_waits] hint the session was built
    without; a refused edit leaves the session, its counters included,
    as it was. *)

val net : t -> Net.t
val algo : t -> Algo.t

val space : t -> State_space.t
(** The session's current state space (updated in place by {!update}). *)

val session : t -> Bwg.Session.t
(** The session the verdicts read, every entry live between updates: a
    Theorem-3 verdict probes it and puts back what it removed. *)

val counters : t -> counters
