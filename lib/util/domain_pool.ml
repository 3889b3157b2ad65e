(* Parked worker domains, reused across phases and shared by every
   caller in the process.

   Each worker owns a mailbox (mutex + condition + job slot) and loops
   forever: wait for a job, run it, repark.  [parallel] takes free
   workers from a global stack, posts one job per index, runs index 0
   (and any indices it could not place) itself, then blocks on a
   completion latch.  [async] appends its job to a FIFO backlog that
   is handed to workers while the busy cap allows.

   A job runs its work and returns its completion signal.  The worker
   reparks (and hands the backlog its next job) *before* firing the
   signal, so a caller that has observed the completion also observes
   the freed worker — this is what makes [spawned] stable across
   consecutive calls, the reuse guarantee the tests pin.  It fires the
   signal *before* running a backlog job it was handed, so a [parallel]
   caller never waits on somebody else's async job.

   The latch mutex also orders memory: every write a worker made is
   visible to the caller after the join, and the caller's writes are
   visible to workers through the job-submission mutex.  Callers can
   therefore fill disjoint slots of shared arrays from workers and read
   them after [parallel] returns without further synchronization. *)

type job = unit -> unit -> unit

type worker = {
  m : Mutex.t;
  cv : Condition.t;
  mutable job : job option;
}

let max_workers = 64

(* Concurrency cap.  Running more domains than cores is not a harmless
   no-op in OCaml: every minor collection is a stop-the-world handshake
   across all running domains, and when they share one core each
   handshake pays scheduling latency — a [--domains 4] check on a
   1-core machine measures >2x slower than serial.  The pool therefore
   never keeps more than [cap () - 1] workers busy, process-wide; the
   rest of the work runs sequentially on its callers, which changes
   placement but (by the determinism contract) never output. *)
let cap_override : int option Atomic.t = Atomic.make None

let cap () =
  match Atomic.get cap_override with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let set_cap o =
  (match o with
  | Some n when n < 1 -> invalid_arg "Domain_pool.set_cap: cap must be >= 1"
  | _ -> ());
  Atomic.set cap_override o

(* Busy workers allowed.  A [parallel] caller runs indices itself, so it
   leaves one core to its own domain; an async job has nobody else to
   run it and always gets a worker, even at cap 1. *)
let limit ~async = if async then max 1 (cap () - 1) else cap () - 1

(* Everything below is guarded by [pool_m]: the free stack, the spawn
   counter, the busy count and the backlog, so that taking a worker (or
   queueing for one) and reparking one are each a single critical
   section — a job can never sit in the backlog beside an idle worker. *)
let pool_m = Mutex.create ()
let free : worker Stack.t = Stack.create ()
let spawned_n = ref 0
let busy = ref 0
let backlog : job Queue.t = Queue.create ()

let spawned () =
  Mutex.lock pool_m;
  let n = !spawned_n in
  Mutex.unlock pool_m;
  n

let submit w job =
  Mutex.lock w.m;
  w.job <- Some job;
  Condition.signal w.cv;
  Mutex.unlock w.m

let rec worker_loop w =
  Mutex.lock w.m;
  while w.job = None do
    Condition.wait w.cv w.m
  done;
  let job = Option.get w.job in
  w.job <- None;
  Mutex.unlock w.m;
  let signal = job () in
  Mutex.lock pool_m;
  decr busy;
  Stack.push w free;
  dispatch ();
  Mutex.unlock pool_m;
  signal ();
  worker_loop w

(* under [pool_m]: a parked or newly spawned worker, counted busy; [None]
   at the busy cap (which [set_cap] may have lowered below the number
   already spawned) or when all [max_workers] are busy *)
and take ~async =
  if !busy >= limit ~async then None
  else
    match Stack.pop_opt free with
    | Some w ->
      incr busy;
      Some w
    | None when !spawned_n < max_workers ->
      incr spawned_n;
      incr busy;
      let w = { m = Mutex.create (); cv = Condition.create (); job = None } in
      ignore (Domain.spawn (fun () -> worker_loop w) : unit Domain.t);
      Some w
    | None -> None

(* under [pool_m]: hand backlog jobs to workers, oldest first, while the
   busy cap allows *)
and dispatch () =
  if not (Queue.is_empty backlog) then
    match take ~async:true with
    | Some w ->
      submit w (Queue.pop backlog);
      dispatch ()
    | None -> ()

let parallel ~domains f =
  if domains <= 1 then f 0
  else begin
    let errors = Array.make domains None in
    let run k = try f k with e -> errors.(k) <- Some e in
    (* fewer workers than [domains - 1] is a legal result the caller
       absorbs by running the leftover indices itself *)
    Mutex.lock pool_m;
    let rec acquire acc need =
      if need = 0 then acc
      else
        match take ~async:false with
        | Some w -> acquire (w :: acc) (need - 1)
        | None -> acc
    in
    let workers = acquire [] (domains - 1) in
    Mutex.unlock pool_m;
    let placed = List.length workers in
    let latch_m = Mutex.create () in
    let latch_cv = Condition.create () in
    let pending = ref placed in
    List.iteri
      (fun i w ->
        submit w (fun () ->
            run (i + 1);
            fun () ->
              Mutex.lock latch_m;
              decr pending;
              if !pending = 0 then Condition.signal latch_cv;
              Mutex.unlock latch_m))
      workers;
    run 0;
    (* indices the pool had no worker for run here, in order *)
    for k = placed + 1 to domains - 1 do
      run k
    done;
    Mutex.lock latch_m;
    while !pending > 0 do
      Condition.wait latch_cv latch_m
    done;
    Mutex.unlock latch_m;
    Array.iter (function Some e -> raise e | None -> ()) errors
  end

type 'a promise = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable result : ('a, exn) result option;
}

let async f =
  let p = { pm = Mutex.create (); pc = Condition.create (); result = None } in
  let job () =
    let r = try Ok (f ()) with e -> Error e in
    fun () ->
      Mutex.lock p.pm;
      p.result <- Some r;
      Condition.broadcast p.pc;
      Mutex.unlock p.pm
  in
  Mutex.lock pool_m;
  Queue.add job backlog;
  dispatch ();
  Mutex.unlock pool_m;
  p

let poll p =
  Mutex.lock p.pm;
  let r = p.result in
  Mutex.unlock p.pm;
  r

let await p =
  Mutex.lock p.pm;
  while Option.is_none p.result do
    Condition.wait p.pc p.pm
  done;
  let r = Option.get p.result in
  Mutex.unlock p.pm;
  r

let chunk ~n ~domains k =
  let d = max 1 domains in
  if k < 0 || k >= d then (0, 0)
  else begin
    let base = n / d and extra = n mod d in
    let start = (k * base) + min k extra in
    (start, start + base + if k < extra then 1 else 0)
  end
