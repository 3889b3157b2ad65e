(** Incremental re-checking sessions for edit-heavy traffic.

    A session holds one {!Bwg.Session} over the checked instance — each
    destination's (occupied buffer, waiting head) groups, a count of live
    emissions per BWG edge, and the Theorem-1 rank certificate — plus
    each destination's stuck and wait-unconnected states.  An edit with a
    known dirty destination frontier ({!Dfr_spec.Diff} for spec edits)
    replaces only those destinations' slices ({!Bwg.Session.update}) and
    re-renders the verdict:

    - when the instance has stuck states, is not wait-connected, or the
      rank certifies its BWG acyclic (Theorem 1), the report is rendered
      from the session's live BWG in O(edit): it reads only the edge and
      vertex counts, and no BWG is rebuilt;
    - otherwise a {!Bwg.Session.snapshot}, the cold build's edge pass
      over the session's groups and live wait sets, is decided by
      {!Checker.decide}, the cold pipeline itself.

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
  | Fast  (** verdict rendered from the live BWG's counts *)
  | Replay  (** a snapshot of the session decided by the cold pipeline *)

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

val create :
  ?witness_cap:int ->
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?reduction_budget:int ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  t * result
(** Cold-build a session: state space, one group capture per
    destination (over [domains] pool workers), merged graph, and the
    initial verdict.  The limits are pinned for the session's lifetime
    so every replayed verdict runs the pipeline under the same caps as
    the session's own cold baseline.
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

val counters : t -> counters
