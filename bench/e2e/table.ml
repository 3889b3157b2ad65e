(* The two declarative inputs: BENCHMARK.json (metric names, units,
   directions and regression bounds) and workloads.json (each workload's
   instances, expected results and sizing).  Every run, the smoke test and
   compare read them, so the documentation and the runner cannot drift. *)

module Json = Dfr_util.Json

let fail fmt = Printf.ksprintf failwith fmt

(* ---- JSON accessors: a missing or mistyped field is a table error ---- *)

let field k j = match Json.member k j with Some v -> v | None -> fail "missing field %S" k
let opt k j = match Json.member k j with None | Some Json.Null -> None | Some v -> Some v
let str k j = match field k j with Json.String s -> s | _ -> fail "field %S: string expected" k
let int k j = match field k j with Json.Int i -> i | _ -> fail "field %S: integer expected" k
let num = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> fail "number expected"
let list k j = match field k j with Json.List l -> l | _ -> fail "field %S: list expected" k
let int_or k d j = match opt k j with Some (Json.Int i) -> i | _ -> d
let str_opt k j = match opt k j with Some (Json.String s) -> Some s | _ -> None

let read_json path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error msg -> fail "%s: %s" path msg

(* ---- BENCHMARK.json ---- *)

type metric = { name : string; unit_ : string; lower_better : bool; bound : float }

type bench = {
  run_seconds : float;
  workload_names : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load_bench root =
  let j = read_json (Filename.concat root "BENCHMARK.json") in
  let metric m =
    {
      name = str "name" m;
      unit_ = str "unit" m;
      lower_better = str "better" m = "lower";
      bound = (match opt "bound" m with Some b -> num b | None -> nan);
    }
  in
  {
    run_seconds = num (field "run_seconds" j);
    workload_names = List.map (str "name") (list "workloads" j);
    end_to_end = List.map metric (list "end_to_end" j);
    per_layer = List.map metric (list "per_layer" j);
  }

(* ---- workloads.json ---- *)

type workload = { wname : string; surface : string; run : Json.t; smoke : Json.t }

let load_workloads root =
  List.map
    (fun w ->
      { wname = str "name" w; surface = str "surface" w; run = field "run" w; smoke = field "smoke" w })
    (list "workloads" (read_json (Filename.concat root "bench/e2e/workloads.json")))

(* ---- what one workload run produces ---- *)

(* What a workload measured for the end-to-end metrics: each set-up (s)
   and operation (ms) with the time it ended, the loop's start and end
   (Proc.now), and the peak RSS. *)
type raw = {
  setups : (float * float) list;
  samples : (float * float) list;
  loop : float * float;
  rss_mb : float;
}

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failure messages *)
  mutable metrics : (string * (float * string)) list;
  mutable details : (string * Json.t) list;
  mutable raw : raw option;
}

let outcome () =
  { attempted = 0; failed = 0; errors = []; metrics = []; details = []; raw = None }

let failure ?(n = 1) o fmt =
  Printf.ksprintf
    (fun msg ->
      o.failed <- o.failed + n;
      if List.length o.errors < 8 then o.errors <- o.errors @ [ msg ])
    fmt

(* Count [n] operations with one outcome; [check] is [Some reason] when
   they failed. *)
let attempt ?(n = 1) o check =
  o.attempted <- o.attempted + n;
  match check with Some reason -> failure ~n o "%s" reason | None -> ()

let metric o name unit_ v = o.metrics <- o.metrics @ [ (name, (v, unit_)) ]
let detail o k v = o.details <- o.details @ [ (k, v) ]

(* Per-layer counts of layers a workload never reaches read 0. *)
let not_reached o names = List.iter (fun (n, u) -> metric o n u 0.) names
let floats l = Json.List (List.map (fun f -> Json.Float f) l)

let e2e o ~setups ~samples ~loop ~rss_mb = o.raw <- Some { setups; samples; loop; rss_mb }

(* The three end-to-end metrics every workload reports: set-up (the
   median over the run's set-ups) and median operation latency, both at the
   reference speed (see Speed), and the peak RSS over the workload's
   children.  The raw timings, the 99th percentile and the completed
   operations per second go to the details: on the cold workloads the p99
   is the slowest of a run's few checks, and the serving engine's
   throughput follows its tail, both too unsteady to gate. *)
let end_to_end o ~speed =
  Option.iter
    (fun r ->
      let scaled = List.map (fun (at, v) -> v /. Speed.slowdown_at speed at) in
      let raw = List.map snd in
      let from, until = r.loop in
      let loop_s = until -. from -. Speed.probing speed ~from ~until in
      metric o "setup_s" "s" (Stats.median (scaled r.setups));
      metric o "p50_ms" "ms" (Stats.percentile (scaled r.samples) 0.5);
      metric o "peak_rss_mb" "MB" r.rss_mb;
      List.iter
        (fun (k, v) -> detail o k (Json.Float v))
        [
          ("median_slowdown", Speed.median_slowdown speed);
          ("raw_setup_s", Stats.median (raw r.setups));
          ("raw_p50_ms", Stats.percentile (raw r.samples) 0.5);
          ("raw_p99_ms", Stats.percentile (raw r.samples) 0.99);
          ("raw_ops_per_s", float_of_int (List.length r.samples) /. loop_s);
        ];
      detail o "probe_ms" (floats (List.map (fun p -> p.Speed.ms) speed.Speed.probes));
      detail o "samples" (Json.Int (List.length r.samples));
      detail o "setup_samples_s" (floats (raw r.setups)))
    o.raw

(* ---- the context a workload runs in ---- *)

type ctx = {
  root : string;  (** checkout root: BENCHMARK.json, examples/ *)
  work : string;  (** scratch directory for inputs, logs and traces *)
  dfcheck : string;
  self : string;  (** this executable, re-run for in-process children *)
  seed : int;
  seconds : float;  (** measurement budget; 0 runs exactly [min_ops] *)
  trace : bool;
  wl : workload;
  params : Json.t;  (** the workload's "run" or "smoke" section *)
  spans : Spans.t;
  speed : Speed.t;  (** the run's speed probes, taken between operations *)
}

let work_file ctx name = Filename.concat ctx.work name

(* How many times to set up: a traced run reports no set-up time, so it
   sets up once. *)
let setups ctx = if ctx.trace then 1 else int_or "setups" 3 ctx.params
let log ctx = work_file ctx (ctx.wl.wname ^ ".log")

(* Keep starting operations until [seconds] are spent and at least the
   section's "min_ops" have run, probing the machine's speed between
   them; returns when the loop started and ended. *)
let measure ~speed ~seconds params f =
  let min_ops = int_or "min_ops" 1 params in
  let t0 = Proc.now () in
  let i = ref 0 in
  while !i < min_ops || Proc.now () -. t0 < seconds do
    f !i;
    incr i;
    Speed.tick speed
  done;
  (t0, Proc.now ())

(* ---- expected verdicts: the one check every report goes through ---- *)

(* [expect] is a workloads.json object: exit, result, and optionally
   theorem, failure (the verdict kind) and buffers. *)
let check_report ~expect ~exit_code text =
  let module R = Dfr_core.Report_json in
  match R.of_string text with
  | Error msg -> Some ("unparseable report: " ^ msg)
  | Ok s ->
    let want k v = match opt k expect with None -> true | Some x -> x = v in
    let json_opt f = function Some x -> f x | None -> Json.Null in
    let mismatch what = Some (Printf.sprintf "%s differs from %s" what (Json.to_string expect)) in
    if exit_code <> int "exit" expect then mismatch (Printf.sprintf "exit %d" exit_code)
    else if s.R.result <> str "result" expect then mismatch ("result " ^ s.R.result)
    else if not (want "theorem" (json_opt (fun t -> Json.Int t) s.R.theorem)) then
      mismatch "theorem"
    else if not (want "failure" (json_opt (fun k -> Json.String k) s.R.failure_kind)) then
      mismatch "failure kind"
    else if not (want "buffers" (Json.Int s.R.buffers)) then mismatch "buffer count"
    else None
