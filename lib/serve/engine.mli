(** The serving engine: request dispatch, the content-addressed verdict
    cache, admission of checks onto the shared domain pool, per-request
    deadlines.

    The engine is the transport-independent half of [dfcheck serve]: the
    stdio/TCP loop ({!Server}), the benchmark harness and the test suite
    all drive the same [handle_line]/[poll]/[await] surface.

    Threading contract: {!handle_line}, {!poll}, {!await}, {!stats_json}
    and {!shutdown} must all be called from one orchestrator thread.
    Each admitted check runs as one {!Dfr_util.Domain_pool.async} job, so
    how many run at once follows the pool's cap; pool workers only ever
    run the pure checking job, and the cache, the in-flight table and
    the digest memo belong to the orchestrator.  Together with
    in-order response draining this makes every response byte — including
    the [cached] flag — a function of the request sequence alone, which
    is what the smoke test's cross-[--domains] diff pins. *)

open Dfr_util

type config = {
  capacity : int;
      (** max outstanding checks (queued or running); a timed-out check
          keeps its slot until it actually finishes *)
  cache_capacity : int;
      (** verdict-cache entries, and entries of the memo from named
          problems to digests; 0 disables both *)
  cache_entry_bytes : int;
      (** per-entry cap on the rendered report a cache entry may pin;
          0 = unlimited.  Oversized reports (giant deadlock witnesses)
          are served but not cached. *)
  timeout_ms : int;  (** per-request deadline; 0 disables *)
  domains : int;
      (** per-check BWG/classification parallelism; 0 = auto-size from
          {!Dfr_util.Domain_pool.cap} (the machine's core count unless
          [set_cap] overrides it) at {!create} time *)
  sessions : int;
      (** incremental sessions kept live for [check_delta]; 0 disables
          the delta path (every delta request re-checks cold) *)
}

val default_config : config
(** Capacity 64, 256 cache entries of at most 1 MiB each, no timeout,
    auto-sized domains per check, 8 incremental sessions. *)

type t

val create : config -> t
(** Resolves [domains = 0] to the pool cap.  Raises [Invalid_argument]
    on non-positive capacity, negative domains or negative cache
    capacity. *)

val domains : t -> int
(** The resolved per-check domain count (never 0). *)

type slot
(** One request's place in the response order: either already answered
    (errors, cache hits, control ops) or waiting on a pool job. *)

val handle_line : t -> string -> slot
(** Parse and dispatch one request line.  Never raises and never blocks
    on checking work; a malformed or rejected request yields a slot that
    is already resolved to an error response. *)

val poll : t -> slot -> Json.t option
(** Non-blocking: the response if the slot has resolved (completing cache
    insertion and timeout bookkeeping as a side effect), else [None]. *)

val await : t -> slot -> Json.t
(** Block until the slot resolves (honouring its deadline). *)

val shutdown_requested : t -> bool
(** Set once a [shutdown] request has been dispatched. *)

val requests : t -> int
val stats_json : t -> Json.t

val shutdown : t -> unit
(** Wait until every admitted check has finished, including those whose
    requests already timed out.  Idempotent. *)
