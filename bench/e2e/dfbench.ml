(* dfbench: the repository's benchmark — five workloads through the real
   user surfaces, end-to-end metrics from untraced runs, per-layer metrics
   from traced ones, every output checked.  See README.md.

     dfbench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
     dfbench smoke
     dfbench compare A.json [A2.json ...] [-- B.json ...]

   Common flags: --root DIR (checkout root, default .), --work DIR
   (scratch, default ROOT/_build/dfbench), --dfcheck PATH (default the dune
   build of bin/dfcheck.exe). *)

module Json = Dfr_util.Json

let usage () =
  prerr_endline
    "usage: dfbench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]\n\
    \                   [--out FILE]\n\
    \       dfbench smoke\n\
    \       dfbench compare A.json [A2.json ...] [-- B.json ...]\n\
     common flags: --root DIR --work DIR --dfcheck PATH";
  2

(* --flag value pairs; --trace alone means --trace 1 *)
let parse args =
  let rec go acc = function
    | [] -> acc
    | "--trace" :: (("0" | "1") as v) :: rest -> go (("trace", v) :: acc) rest
    | "--trace" :: rest -> go (("trace", "1") :: acc) rest
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | a :: _ -> Table.fail "unexpected argument %S" a
  in
  go [] args

let get opts k default = Option.value ~default (List.assoc_opt k opts)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The commit, when the checkout still has its .git (benchmark checkouts
   need not). *)
let commit root =
  let read f =
    String.trim (In_channel.with_open_bin (Filename.concat root f) In_channel.input_all)
  in
  match read ".git/HEAD" with
  | head when String.starts_with ~prefix:"ref: " head -> (
    try read (".git/" ^ String.sub head 5 (String.length head - 5)) with Sys_error _ -> head)
  | head -> head
  | exception Sys_error _ -> "unknown"

type common = {
  root : string;
  work : string;
  dfcheck : string;
  bench : Table.bench;
  workloads : Table.workload list;
}

let common opts =
  let root = get opts "root" "." in
  let work = get opts "work" (Filename.concat root "_build/dfbench") in
  mkdir_p work;
  let bench = Table.load_bench root in
  let workloads = Table.load_workloads root in
  let names = List.map (fun w -> w.Table.wname) workloads in
  if names <> bench.Table.workload_names then
    Table.fail "workloads.json names %s but BENCHMARK.json names %s" (String.concat "," names)
      (String.concat "," bench.Table.workload_names);
  let dfcheck = get opts "dfcheck" (Filename.concat root "_build/default/bin/dfcheck.exe") in
  { root; work; dfcheck; bench; workloads }

let declared (c : common) ~trace =
  if trace then c.bench.Table.per_layer else c.bench.Table.end_to_end

let run_workload (c : common) ~seed ~seconds ~trace (wl : Table.workload) params =
  let o = Table.outcome () in
  let spans = Spans.create ~enabled:trace in
  let ctx =
    {
      Table.root = c.root;
      work = c.work;
      dfcheck = c.dfcheck;
      self = Sys.executable_name;
      seed;
      seconds;
      trace;
      wl;
      params;
      spans;
      speed =
        Speed.create ~enabled:(not trace)
          ~log:(Filename.concat c.work (wl.Table.wname ^ ".log"))
          ~self:Sys.executable_name;
    }
  in
  let measure =
    match wl.Table.surface with
    | "cli" -> Cli_wl.run
    | "incr" -> Incr_wl.run
    | "serve" -> Serve_wl.run
    | s -> Table.fail "unknown surface %S" s
  in
  (try
     Spans.span spans wl.Table.wname (fun () -> measure ctx o);
     Table.end_to_end o ~speed:ctx.Table.speed
   with
  | Failure msg | Sys_error msg -> Table.failure o "%s" msg
  | e -> Table.failure o "%s" (Printexc.to_string e));
  if trace then
    Spans.write spans
      (Table.work_file ctx (Printf.sprintf "%s.seed%d.trace.json" wl.Table.wname seed));
  List.iter
    (fun (m : Table.metric) ->
      match List.assoc_opt m.Table.name o.Table.metrics with
      | Some (_, u) when u = m.Table.unit_ -> ()
      | Some (_, u) ->
        Table.failure o "metric %s reported in %s, declared in %s" m.Table.name u m.Table.unit_
      | None -> Table.failure o "metric %s was not measured" m.Table.name)
    (declared c ~trace);
  (wl, o)

let correct (o : Table.outcome) = o.Table.failed = 0 && o.Table.attempted > 0
let value (v, u) = Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]

let run_json ((wl : Table.workload), (o : Table.outcome)) =
  Json.Obj
    [
      ("workload", Json.String wl.Table.wname);
      ("correct", Json.Bool (correct o));
      ("attempted", Json.Int o.Table.attempted);
      ("failed", Json.Int o.Table.failed);
      ("errors", Json.List (List.map (fun e -> Json.String e) o.Table.errors));
      ("metrics", Json.Obj (List.map (fun (n, m) -> (n, value m)) o.Table.metrics));
      ("details", Json.Obj o.Table.details);
    ]

let print_run ~seed ((wl : Table.workload), (o : Table.outcome)) =
  Printf.printf "%s  seed %d  %d operations, %d failed\n" wl.Table.wname seed o.Table.attempted
    o.Table.failed;
  List.iter (fun (n, (v, u)) -> Printf.printf "  %-28s %14.6g %s\n" n v u) o.Table.metrics;
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) o.Table.errors

(* The last stdout line: the declared metrics only, keyed by name for one
   workload and by workload/name for several. *)
let summary_line (c : common) ~trace runs =
  let key = match runs with [ _ ] -> fun _ n -> n | _ -> fun w n -> w ^ "/" ^ n in
  let metrics =
    List.concat_map
      (fun ((wl : Table.workload), (o : Table.outcome)) ->
        List.filter_map
          (fun (m : Table.metric) ->
            Option.map
              (fun v -> (key wl.Table.wname m.Table.name, value v))
              (List.assoc_opt m.Table.name o.Table.metrics))
          (declared c ~trace))
      runs
  in
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 runs in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun (_, o) -> correct o) runs));
         ("attempted", Json.Int (sum (fun o -> o.Table.attempted)));
         ("failed", Json.Int (sum (fun o -> o.Table.failed)));
         ("metrics", Json.Obj metrics);
       ])

let write_results file (c : common) ~seed ~seconds ~trace runs =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "dfbench/1");
        ("commit", Json.String (commit c.root));
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("pool_cap", Json.Int (Dfr_util.Domain_pool.cap ()));
        ("runs", Json.List (List.map run_json runs));
      ]
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc (Json.to_string_pretty doc ^ "\n"))

let run opts =
  let c = common opts in
  let seed = int_of_string (get opts "seed" "1") in
  let seconds =
    match List.assoc_opt "seconds" opts with
    | Some s -> float_of_string s
    | None -> c.bench.Table.run_seconds
  in
  let trace = get opts "trace" "0" = "1" in
  let selected =
    match List.assoc_opt "workload" opts with
    | None -> c.workloads
    | Some w -> (
      match List.find_opt (fun x -> x.Table.wname = w) c.workloads with
      | Some x -> [ x ]
      | None -> Table.fail "unknown workload %S" w)
  in
  let runs = List.map (fun wl -> run_workload c ~seed ~seconds ~trace wl wl.Table.run) selected in
  List.iter (print_run ~seed) runs;
  Option.iter (fun f -> write_results f c ~seed ~seconds ~trace runs) (List.assoc_opt "out" opts);
  print_endline (summary_line c ~trace runs);
  if List.for_all (fun (_, o) -> correct o) runs then 0 else 1

(* Every workload on its tiny "smoke" instances, untraced and traced:
   every declared metric must be measured and every output correct.
   Also the wait4 self-test and a compare round trip. *)
let smoke opts =
  let c = common opts in
  let ok = ref true in
  let check what b =
    if not b then begin
      ok := false;
      Printf.printf "FAILED: %s\n%!" what
    end
  in
  let log = Filename.concat c.work "smoke.log" in
  let rss mb =
    let _, ex = Proc.run ~log Sys.executable_name [ "child"; "alloc"; string_of_int mb ] in
    ex.Proc.rss_mb
  in
  let big = rss 200 in
  let small = rss 0 in
  check (Printf.sprintf "a 200 MB child reports its peak (%.0f MB)" big) (big >= 190.);
  check
    (Printf.sprintf "a trivial child after it reports under 50 MB (%.1f MB)" small)
    (small < 50.);
  let pass trace =
    List.map (fun wl -> run_workload c ~seed:1 ~seconds:0. ~trace wl wl.Table.smoke) c.workloads
  in
  let plain = pass false in
  let traced = pass true in
  List.iter
    (fun ((wl : Table.workload), o) ->
      if not (correct o) then print_run ~seed:1 (wl, o);
      check (wl.Table.wname ^ " is correct and complete") (correct o))
    (plain @ traced);
  let results = Filename.concat c.work "smoke-results.json" in
  write_results results c ~seed:1 ~seconds:0. ~trace:false plain;
  let rows = Compare.rows ~root:c.root [ results ] [ results ] in
  check "compare of a result file against itself finds every row the same"
    (rows <> [] && List.for_all (fun (_, _, _, _, v) -> v = "same") rows);
  Printf.printf "dfbench smoke: %d runs, %s\n" (List.length (plain @ traced))
    (if !ok then "all correct" else "FAILED");
  if !ok then 0 else 1

let compare args =
  let root, args = match args with "--root" :: r :: rest -> (r, rest) | _ -> (".", args) in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  match split [] args with
  | [ a; b ], [] -> Compare.run ~root [ a ] [ b ]
  | (_ :: _ as a), (_ :: _ as b) -> Compare.run ~root a b
  | _ -> usage ()

let child kind opts =
  let arg k =
    match List.assoc_opt k opts with
    | Some v -> v
    | None -> Table.fail "child %s: --%s missing" kind k
  in
  let trace = arg "trace" = "1" and trace_file = arg "trace-file" in
  let doc =
    match kind with
    | "pipeline" ->
      let sources = Option.get (Json.to_list (Table.read_json (arg "sources"))) in
      Pipeline.child ~sources:(List.map Pipeline.source_of_json sources) ~trace ~trace_file
    | "incr" ->
      Incr_wl.child ~params:(Table.read_json (arg "params"))
        ~setups:(int_of_string (arg "setups")) ~seed:(int_of_string (arg "seed"))
        ~seconds:(float_of_string (arg "seconds")) ~trace ~plan_file:(arg "plan") ~trace_file
        ~log:(arg "log")
    | k -> Table.fail "unknown child %S" k
  in
  print_endline (Json.to_string doc);
  0

(* The self-test child: touch [mb] megabytes, then exit. *)
let alloc mb =
  let b = Bytes.make (mb * 1024 * 1024) 'x' in
  ignore (Sys.opaque_identity b);
  0

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "run" :: rest -> run (parse rest)
      | "smoke" :: rest -> smoke (parse rest)
      | "compare" :: rest -> compare rest
      | [ "child"; "alloc"; mb ] -> alloc (int_of_string mb)
      | [ "child"; "probe" ] ->
        Printf.printf "%.6f\n" (Speed.workload ());
        0
      | "child" :: kind :: rest -> child kind (parse rest)
      | _ -> usage ()
    with Failure msg | Sys_error msg ->
      prerr_endline ("dfbench: " ^ msg);
      2
  in
  exit code
