open Dfr_util
open Dfr_core
module Obs = Dfr_obs.Obs
module Ops = Dfr_ops.Ops

type config = {
  capacity : int;
  cache_capacity : int;
  cache_entry_bytes : int;
  timeout_ms : int;
  domains : int;
  sessions : int;
}

let default_config =
  {
    capacity = 64;
    cache_capacity = 256;
    cache_entry_bytes = 1 lsl 20;
    timeout_ms = 0;
    domains = 0;
    sessions = 8;
  }

(* What the cache stores per digest: the report object exactly as first
   rendered, plus its exit code.  A hit replays these bytes; only the
   envelope (id, cached flag) differs between the original miss and the
   hits. *)
type entry = { report : Json.t; exit_code : int }

(* A live incremental session, addressed by the digest of the spec it
   currently answers for.  The LRU has no remove, so when a session moves
   on (an update answers for the edit's digest) or is retired, the old
   binding stays behind — [current] detects and ignores such stale
   bindings. *)
type session = { live : Ops.session; mutable current : string }

type outcome = Checked of entry | Slept of int

type pending = {
  digest : string option; (* Some for checks, None for sleeps *)
  promise : (outcome, Ops.error) result Domain_pool.promise;
  deadline : float option;
  cached : bool; (* answered by an earlier in-flight request's work *)
}

type slot_state = Ready of Json.t | Waiting of pending
type slot = { id : Json.t option; mutable state : slot_state }

type t = {
  config : config;
  cache : entry Cache.t;
  sessions : session Cache.t;
  inflight : (string, (outcome, Ops.error) result Domain_pool.promise) Hashtbl.t;
      (* digest -> promise of the first, still-running request for it *)
  digests : string Cache.t;
      (* "algo@topology" -> digest; an LRU because the topology parser
         accepts many spellings of one instance *)
  admission_m : Mutex.t;
  finished : Condition.t;
  mutable outstanding : int;
      (* admitted jobs not yet finished, queued or running; the only
         state a pool worker writes, under [admission_m] *)
  mutable requests : int;
  mutable stop : bool;
}

let create config =
  if config.capacity < 1 then invalid_arg "Engine.create: capacity >= 1";
  if config.domains < 0 then invalid_arg "Engine.create: domains >= 0";
  (* domains = 0 means "size from the machine": the shared pool's cap,
     the core count unless set_cap overrides it *)
  let config =
    if config.domains = 0 then
      { config with domains = Dfr_util.Domain_pool.cap () }
    else config
  in
  {
    config;
    cache =
      Cache.create ~max_entry_bytes:config.cache_entry_bytes
        ~capacity:config.cache_capacity ();
    sessions = Cache.create ~capacity:config.sessions ();
    inflight = Hashtbl.create 64;
    digests = Cache.create ~capacity:config.cache_capacity ();
    admission_m = Mutex.create ();
    finished = Condition.create ();
    outstanding = 0;
    requests = 0;
    stop = false;
  }

let shutdown_requested t = t.stop
let requests t = t.requests
let domains t = t.config.domains

let outstanding t =
  Mutex.lock t.admission_m;
  let n = t.outstanding in
  Mutex.unlock t.admission_m;
  n

(* a timed-out job still runs and still holds its slot; wait it out *)
let shutdown t =
  Mutex.lock t.admission_m;
  while t.outstanding > 0 do
    Condition.wait t.finished t.admission_m
  done;
  Mutex.unlock t.admission_m

let stats_json t =
  Json.Obj
    [
      ("requests", Json.Int t.requests);
      ("cache", Cache.stats_json t.cache);
      ("sessions", Cache.stats_json t.sessions);
      ("digests", Cache.stats_json t.digests);
      ( "pool",
        Json.Obj
          [
            ("capacity", Json.Int t.config.capacity);
            ("outstanding", Json.Int (outstanding t));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)

let ready j = Ready j
let gauge_depth t = Obs.gauge "serve.queue.depth" (float_of_int (outstanding t))

(* Admission counts outstanding jobs, and a job gives its slot back
   before its promise is fulfilled: whoever observes a completion also
   observes the freed slot.  Admission therefore depends on which
   earlier jobs have finished, never on how far the pool has got with
   its backlog, and [queue_full] is reproducible. *)
let admit t job =
  Mutex.lock t.admission_m;
  let admitted = t.outstanding < t.config.capacity in
  if admitted then t.outstanding <- t.outstanding + 1;
  Mutex.unlock t.admission_m;
  if not admitted then None
  else begin
    let release () =
      Mutex.lock t.admission_m;
      t.outstanding <- t.outstanding - 1;
      Condition.broadcast t.finished;
      Mutex.unlock t.admission_m
    in
    let promise = Domain_pool.async (fun () -> Fun.protect ~finally:release job) in
    gauge_depth t;
    Some promise
  end

let queue_full t ~id =
  Obs.count "serve.queue_full" 1;
  ready
    (Protocol.error_response ~id ~kind:"queue_full"
       (Printf.sprintf "server at capacity (%d outstanding checks)" t.config.capacity))

(* Deadlines are monotonic-clock instants: an NTP step of the wall clock
   must neither spuriously expire an in-flight request nor extend it. *)
let deadline_of t =
  if t.config.timeout_ms <= 0 then None
  else Some (Monotime.now () +. (float_of_int t.config.timeout_ms /. 1000.))

(* Digest of an elaborated problem, with a safety net: the canonical
   reprint refuses networks whose channels are not identity-unique (none
   ship in the registry, but a custom entry could).  Falling back to a
   digest of the tagged source keeps the cache correct — it only costs
   cross-surface sharing for that request.  The reprint calls the routing
   function, so one that refuses the network (a named algorithm on a
   topology it does not support) lands here too, and the check itself
   reports the refusal. *)
let digest t (source : Ops.source) (i : Ops.instance) =
  let printed kind key =
    let fallback () = Digest.to_hex (Digest.string ("fallback:" ^ kind ^ key)) in
    match Dfr_spec.Printer.digest i.Ops.net i.Ops.algo with
    | Ok d -> d
    | Error _ -> fallback ()
    | exception (Invalid_argument _ | Failure _) -> fallback ()
  in
  match source with
  | Ops.Named { algo; topology } -> (
    let key = algo ^ "@" ^ Option.value topology ~default:"" in
    match Cache.find t.digests key with
    | Some d -> d
    | None ->
      let d = printed "registry:" key in
      Cache.add t.digests key d;
      d)
  (* the protocol only ever carries inline text *)
  | Ops.Spec (Ops.Text src | Ops.File src) -> printed "spec:" src

let submit_check t ~id ~digest inst =
  match Cache.find t.cache digest with
  | Some entry ->
    Obs.count "serve.cache.hits" 1;
    ready
      (Protocol.check_response ~id ~cached:true ~digest ~exit_code:entry.exit_code
         ~report:entry.report)
  | None -> (
    Obs.count "serve.cache.misses" 1;
    match Hashtbl.find_opt t.inflight digest with
    | Some promise ->
      (* coalesce: same problem already being checked; share its result *)
      Waiting { digest = Some digest; promise; deadline = deadline_of t; cached = true }
    | None -> (
      let domains = t.config.domains in
      let job () =
        Obs.span "serve.check" @@ fun () ->
        Ops.check ~domains inst
        |> Result.map (fun report ->
               Checked
                 {
                   report = Report_json.of_outcome inst.Ops.net inst.Ops.algo report;
                   exit_code = Report_json.exit_code report.Checker.verdict;
                 })
      in
      match admit t job with
      | None -> queue_full t ~id
      | Some promise ->
        Hashtbl.replace t.inflight digest promise;
        Waiting
          { digest = Some digest; promise; deadline = deadline_of t; cached = false }))

(* Incremental re-checks run synchronously on the orchestrator: the whole
   point of the delta path is sub-millisecond latency, and a mutable
   session must not be shared with a pool job anyway.  A session miss (or
   an edit the session cannot take) falls back to a cold session inline —
   costly, but it seeds the session later deltas reuse. *)
let check_delta t ~id ~base ~spec =
  Obs.span "serve.check_delta" @@ fun () ->
  let refuse e =
    Obs.count "serve.errors" 1;
    Protocol.refusal ~id e
  in
  match Ops.compile (Ops.Text spec) with
  | Error e -> refuse e
  | Ok compiled -> (
    let live =
      match Cache.find t.sessions base with
      | Some s when s.current = base -> Some s
      | _ -> None
    in
    let domains = t.config.domains in
    match Ops.delta ~domains (Option.map (fun s -> s.live) live) compiled with
    | Error e -> refuse e
    | Ok d ->
      let res = d.Ops.result in
      let digest =
        digest t (Ops.Spec (Ops.Text spec))
          { Ops.net = compiled.Dfr_spec.Spec.net; algo = compiled.Dfr_spec.Spec.algo }
      in
      (* a session that took the edit now answers for [digest]; one whose
         update was refused is retired rather than proven untouched *)
      (match (live, d.Ops.path) with
      | Some s, (Ops.Fast | Ops.Replay | Ops.Cold (Ops.Refused _)) -> s.current <- ""
      | _ -> ());
      Cache.add t.sessions digest { live = d.Ops.session; current = digest };
      (* the delta verdict is the cold verdict, so plain checks of the
         edited spec may hit the cache on these bytes *)
      if not (Cache.mem t.cache digest) then begin
        let entry = { report = res.Incr.report; exit_code = res.Incr.exit_code } in
        let bytes = String.length (Json.to_string entry.report) in
        Cache.add ~bytes t.cache digest entry
      end;
      let mode = Ops.path_name d.Ops.path in
      Obs.count ("serve.delta." ^ mode) 1;
      Protocol.check_delta_response ~id ~digest ~exit_code:res.Incr.exit_code
        ~report:res.Incr.report
        ~delta:
          (Json.Obj
             [
               ("base", Json.String base);
               ("mode", Json.String mode);
               ("dirty_dests", Json.Int res.Incr.dirty_dests);
               ("reused_dests", Json.Int res.Incr.reused_dests);
             ]))

(* Fault campaigns run synchronously on the orchestrator, like the delta
   path: the campaign drives its own incremental session, which must not
   be shared with a pool job.  The response embeds the campaign document
   verbatim — byte-identical at any pool cap or domain count. *)
let scenario t ~id ~source ~plan ~sweep =
  Obs.span "serve.scenario" @@ fun () ->
  let mode = if sweep then `Sweep else `Sequence in
  match
    Result.bind (Ops.instance source) (fun inst ->
        Ops.scenario ~domains:t.config.domains ~mode inst (Ops.Text plan))
  with
  | Error e ->
    Obs.count "serve.errors" 1;
    Protocol.refusal ~id e
  | Ok s ->
    Obs.count "serve.scenarios" 1;
    Protocol.ok_response ~id ~op:"scenario"
      [ ("exit", Json.Int s.Ops.exit_code); ("campaign", s.Ops.doc) ]

let dispatch t ~id (req : Protocol.request) =
  match req with
  | Protocol.Ping -> ready (Protocol.ok_response ~id ~op:"ping" [])
  | Protocol.Catalogue ->
    ready
      (Protocol.ok_response ~id ~op:"catalogue"
         [ ("algorithms", Ops.catalogue ()) ])
  | Protocol.Stats ->
    ready (Protocol.ok_response ~id ~op:"stats" [ ("stats", stats_json t) ])
  | Protocol.Shutdown ->
    t.stop <- true;
    ready (Protocol.ok_response ~id ~op:"shutdown" [])
  | Protocol.Sleep { ms } -> (
    let job () =
      Obs.span "serve.sleep" @@ fun () ->
      Unix.sleepf (float_of_int ms /. 1000.);
      Ok (Slept ms)
    in
    match admit t job with
    | None -> queue_full t ~id
    | Some promise ->
      Waiting { digest = None; promise; deadline = deadline_of t; cached = false })
  | Protocol.Check source -> (
    match Ops.instance source with
    | Error e -> ready (Protocol.refusal ~id e)
    | Ok inst -> submit_check t ~id ~digest:(digest t source inst) inst)
  | Protocol.Check_delta { base; spec } -> ready (check_delta t ~id ~base ~spec)
  | Protocol.Scenario { source; plan; sweep } ->
    ready (scenario t ~id ~source ~plan ~sweep)

let handle_line t line =
  Obs.span "serve.request" @@ fun () ->
  t.requests <- t.requests + 1;
  Obs.count "serve.requests" 1;
  if t.stop then
    {
      id = None;
      state =
        ready
          (Protocol.error_response ~id:None ~kind:"shutting_down"
             "server is shutting down");
    }
  else
    match Protocol.parse line with
    | Error (id, msg) ->
      Obs.count "serve.errors" 1;
      { id; state = ready (Protocol.error_response ~id ~kind:"parse" msg) }
    | Ok { Protocol.id; req } -> { id; state = dispatch t ~id req }

(* ------------------------------------------------------------------ *)
(* settlement                                                          *)

let settle t ~id (p : pending) result =
  (match p.digest with
  | Some d -> Hashtbl.remove t.inflight d
  | None -> ());
  gauge_depth t;
  match result with
  | Ok (Ok (Checked entry)) ->
    let digest = Option.get p.digest in
    if not (Cache.mem t.cache digest) then begin
      (* the entry's weight is what a hit replays: the rendered report *)
      let bytes = String.length (Json.to_string entry.report) in
      Cache.add ~bytes t.cache digest entry
    end;
    Protocol.check_response ~id ~cached:p.cached ~digest ~exit_code:entry.exit_code
      ~report:entry.report
  | Ok (Ok (Slept ms)) ->
    Protocol.ok_response ~id ~op:"sleep" [ ("ms", Json.Int ms) ]
  | Ok (Error e) ->
    Obs.count "serve.errors" 1;
    Protocol.refusal ~id e
  | Error exn ->
    Obs.count "serve.errors" 1;
    Protocol.error_response ~id ~kind:"internal" (Printexc.to_string exn)

let timed_out t ~id (p : pending) =
  (* the worker cannot be interrupted; its eventual result is discarded
     and, the in-flight entry being gone, a retry recomputes *)
  (match p.digest with
  | Some d -> Hashtbl.remove t.inflight d
  | None -> ());
  Obs.count "serve.timeouts" 1;
  Protocol.error_response ~id ~kind:"timeout"
    (Printf.sprintf "request exceeded the %d ms deadline" t.config.timeout_ms)

let poll t slot =
  match slot.state with
  | Ready j -> Some j
  | Waiting p -> (
    match Domain_pool.poll p.promise with
    | Some result ->
      let j = settle t ~id:slot.id p result in
      slot.state <- Ready j;
      Some j
    | None -> (
      match p.deadline with
      | Some d when Monotime.now () > d ->
        let j = timed_out t ~id:slot.id p in
        slot.state <- Ready j;
        Some j
      | _ -> None))

let await t slot =
  match slot.state with
  | Ready j -> j
  | Waiting p -> (
    match p.deadline with
    | None ->
      let j = settle t ~id:slot.id p (Domain_pool.await p.promise) in
      slot.state <- Ready j;
      j
    | Some _ ->
      let rec spin () =
        match poll t slot with
        | Some j -> j
        | None ->
          Unix.sleepf 0.001;
          spin ()
      in
      spin ())
