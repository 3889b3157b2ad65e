(** A process-wide pool of reusable worker domains.

    Spawning a domain costs roughly a thread creation plus a stop-the-world
    handshake with every running domain — cheap once, ruinous when paid
    per phase per check.  Before this pool existed the checker spawned
    fresh domains for every BWG build, every classification scan and
    every fuzz campaign, so a single [--domains 4] check on a large
    instance paid the spawn tax three times over.  The pool parks worker
    domains between phases instead: the first call spawns what it needs,
    every later call reuses them.  It is the only place the library
    spawns domains: the checker's phases fan out over it with
    {!parallel}, and [dfcheck serve] runs each admitted check on it with
    {!async}.

    Determinism contract: the pool never decides {e what} work an index
    performs, only {e where} it runs.  Callers partition their work by
    index ([chunk], striding, or an atomic ticket whose results are
    merged in a fixed order), so outputs are identical whatever domain
    executed which index — including when the pool is saturated and
    indices fall back to the calling domain.  The flip side of the
    contract: the closures passed to [parallel] must never synchronize
    {e between} indices, because the pool is free to run several of
    them sequentially on one domain.

    The pool also clamps concurrency to the machine, across the whole
    process: at most [cap () - 1] workers are busy at once (default
    {!cap} is [Domain.recommended_domain_count ()]), whether they run
    async jobs, [parallel] indices, or [parallel] indices of calls made
    inside async jobs.  Oversubscribing cores with OCaml domains is
    actively harmful — every minor collection handshakes with all
    running domains, so extra domains on a shared core add latency
    instead of hiding it.  Work beyond the cap still runs: [parallel]
    indices sequentially on their caller, async jobs from a backlog. *)

val parallel : domains:int -> (int -> unit) -> unit
(** [parallel ~domains f] runs [f k] for every [k] in
    [0 .. domains - 1] and returns once all calls have finished.
    [f 0] always runs on the calling domain; the other indices run on
    parked pool workers, spawned on first use and reused afterwards.
    When fewer workers are free than requested — other callers or async
    jobs hold them up to the busy cap, which leaves no worker at all at
    cap 1 — the unassigned indices run sequentially on the calling
    domain after [f 0]; every index runs exactly once regardless.

    If one or more calls raise, the exception of the smallest index is
    re-raised after every call has completed, and the pool remains
    usable.  [domains <= 1] degenerates to [f 0] with no locking. *)

val chunk : n:int -> domains:int -> int -> int * int
(** [chunk ~n ~domains k] is the half-open index range [(start, stop)]
    of the [k]-th of [domains] contiguous chunks of [0 .. n - 1]: a
    deterministic, balanced partition (chunk sizes differ by at most
    one, earlier chunks take the remainder).  Chunks of out-of-range
    [k] are empty. *)

type 'a promise
(** The single-assignment result of an {!async} job. *)

val async : (unit -> 'a) -> 'a promise
(** [async f] runs [f ()] on a pool worker and returns at once.  While
    the busy cap is reached the job waits in a FIFO backlog that workers
    drain as they finish.  Unlike {!parallel}, an async job always gets
    a worker, even at cap 1.  If [f] raises, the exception becomes the
    promise's result and the worker keeps serving.  A worker is reparked
    before its job's promise is fulfilled, so consecutive
    [await (async f)] calls reuse it.  Never {!await} from inside a pool
    job: the awaited job may be queued behind it. *)

val poll : 'a promise -> ('a, exn) result option
(** Non-blocking completion test. *)

val await : 'a promise -> ('a, exn) result
(** Block until the job has completed. *)

val cap : unit -> int
(** The concurrency cap: at most [cap () - 1] busy workers process-wide,
    but at least one for async jobs.  [Domain.recommended_domain_count ()]
    unless overridden. *)

val set_cap : int option -> unit
(** [set_cap (Some n)] overrides the concurrency cap ([n >= 1], subject
    to the pool's ceiling of 64 workers); [set_cap None] restores the
    hardware default.  Meant for tests that must exercise true
    concurrency on small machines, and for benchmarks that measure
    oversubscription on purpose. *)

val spawned : unit -> int
(** Worker domains spawned by the pool so far in this process.  Exposed
    so tests can pin the reuse guarantee: two consecutive
    [parallel ~domains:n] calls must not double it. *)
