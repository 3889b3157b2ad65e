(* The serving engine over stdio with its default flags, driven as a
   closed loop of two virtual clients: at most two requests outstanding,
   each timed from send to response.  The seeded script mixes named cache
   hits, inline specs (each pays parse, elaborate and digest before its
   cache hit), check_delta chains through one incremental session, fault
   campaigns, pings and guaranteed cold misses; every response is checked
   against an in-process reference computed after the loop. *)

open Dfr_routing
module Json = Dfr_util.Json
module Prng = Dfr_util.Prng

type kind = Warm | Hit | Miss | Spec | Delta | Scenario | Ping

let kind_name = function
  | Warm -> "warm"
  | Hit -> "check_hit"
  | Miss -> "check_miss"
  | Spec -> "spec"
  | Delta -> "delta"
  | Scenario -> "scenario"
  | Ping -> "ping"

type campaign = { algo : string; topology : string; plan : string; sweep : bool }

(* What a response is checked against: the reference is computed once
   per key, and every response for the key must carry the same bytes. *)
type key =
  | Named of string * string option
  | Source of string  (** .dfr text, without the comment variant *)
  | Campaign of campaign
  | Nothing

type req = { kind : kind; line : string; key : key; digest : string option }

let request fields = Json.to_string (Json.Obj fields)
let s x = Json.String x

let named_line algo topo =
  request
    ([ ("op", s "check"); ("algo", s algo) ]
    @ match topo with Some t -> [ ("topology", s t) ] | None -> [])

let spec_line text = request [ ("op", s "check"); ("spec", s text) ]
let delta_line ~base text = request [ ("op", s "check_delta"); ("base", s base); ("spec", s text) ]

(* A fully connected network with one explicit route rule per (src, dst)
   pair; an edit widens one rule by a two-hop detour, a single-rule
   change whose frontier is one destination. *)
let delta_spec n widened =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "network dfbench-delta\ntopology fullmesh %d\nswitching wormhole\nvcs 1\nwaiting any\n" n;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        Printf.bprintf b "route at %d to %d : c%d_%d_0" src dst src dst;
        (match widened with
        | Some (s', d', via) when s' = src && d' = dst -> Printf.bprintf b " c%d_%d_0" src via
        | _ -> ());
        Buffer.add_char b '\n'
      end
    done
  done;
  Buffer.contents b

(* The digest the server will answer a spec with, so a delta chain can be
   pipelined without waiting for the previous response. *)
let spec_digest =
  let memo = Hashtbl.create 64 in
  fun text ->
    match Hashtbl.find_opt memo text with
    | Some d -> d
    | None ->
      let net, algo = Pipeline.resolve (Pipeline.Spec text) in
      let d =
        match Dfr_spec.Printer.digest net algo with
        | Ok d -> d
        | Error msg -> Table.fail "digest: %s" msg
      in
      Hashtbl.add memo text d;
      d

(* ---- the script ---- *)

type script = {
  rng : Prng.t;
  block : (kind * int) list;  (** kinds and counts of one block *)
  hits : (string * string option) array;
  specs : string array;
  scenarios : campaign array;
  misses : (string * string option) Queue.t;  (** one per block until used up *)
  n : int;  (** fullmesh size of the delta chain *)
  mutable at : string;  (** the chain's current spec text *)
  mutable scenario_next : int;
  pending : req Queue.t;
}

let instance j = (Table.str "algo" j, Table.str_opt "topology" j)

let script (ctx : Table.ctx) =
  let p = ctx.params in
  let read f = In_channel.with_open_bin (Filename.concat ctx.root f) In_channel.input_all in
  let kind = function
    | "hit" -> Hit
    | "spec" -> Spec
    | "delta" -> Delta
    | "scenario" -> Scenario
    | "ping" -> Ping
    | k -> Table.fail "unknown request kind %S" k
  in
  let campaign j =
    {
      algo = Table.str "algo" j;
      topology = Table.str "topology" j;
      plan = read (Table.str "plan" j);
      sweep = Table.str "mode" j = "sweep";
    }
  in
  let n = Table.int "delta_nodes" p in
  {
    rng = Prng.create ctx.seed;
    block =
      (match Table.field "block" p with
      | Json.Obj l -> List.map (fun (k, v) -> (kind k, int_of_float (Table.num v))) l
      | _ -> Table.fail "block: object expected");
    (* every catalogue entry at its default topology; the custom-network
       entry has a single instance, which is its cold miss *)
    hits =
      Array.of_list
        (List.filter_map
           (fun (e : Registry.entry) ->
             if e.Registry.family = Registry.Custom_family then None
             else Some (e.Registry.name, None))
           Registry.all);
    specs =
      Array.of_list (List.map (fun f -> read (Option.get (Json.to_str f))) (Table.list "specs" p));
    scenarios = Array.of_list (List.map campaign (Table.list "scenarios" p));
    misses = Queue.of_seq (List.to_seq (List.map instance (Table.list "misses" p)));
    n;
    at = delta_spec n None;
    scenario_next = 0;
    pending = Queue.create ();
  }

(* The chain alternates a seeded single-rule edit and the way back. *)
let next_delta sc =
  let base = spec_digest sc.at and plain = delta_spec sc.n None in
  let text =
    if sc.at <> plain then plain
    else
      let src = Prng.int sc.rng sc.n in
      let dst = (src + 1 + Prng.int sc.rng (sc.n - 1)) mod sc.n in
      let via = ref src in
      while !via = src || !via = dst do
        via := Prng.int sc.rng sc.n
      done;
      delta_spec sc.n (Some (src, dst, !via))
  in
  sc.at <- text;
  let digest = Some (spec_digest text) in
  { kind = Delta; key = Source text; digest; line = delta_line ~base text }

let make kind sc =
  let pick a = a.(Prng.int sc.rng (Array.length a)) in
  let plain key line = { kind; key; digest = None; line } in
  match kind with
  | Ping | Warm -> plain Nothing (request [ ("op", s "ping") ])
  | Hit | Miss ->
    let algo, topo = if kind = Hit then pick sc.hits else Queue.pop sc.misses in
    plain (Named (algo, topo)) (named_line algo topo)
  | Spec ->
    let text = pick sc.specs in
    let variant = Printf.sprintf "# dfbench variant %d\n%s" (Prng.int sc.rng 1_000_000) text in
    plain (Source text) (spec_line variant)
  | Delta -> next_delta sc
  | Scenario ->
    let c = sc.scenarios.(sc.scenario_next mod Array.length sc.scenarios) in
    sc.scenario_next <- sc.scenario_next + 1;
    plain (Campaign c)
      (request
         [
           ("op", s "scenario");
           ("algo", s c.algo);
           ("topology", s c.topology);
           ("plan", s c.plan);
           ("mode", s (if c.sweep then "sweep" else "sequence"));
         ])

(* Blocks of a fixed composition, shuffled by the seed, so any prefix of
   the script has close to the same mix. *)
let next sc =
  if Queue.is_empty sc.pending then begin
    let kinds =
      Array.of_list
        (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) sc.block
        @ if Queue.is_empty sc.misses then [] else [ Miss ])
    in
    Prng.shuffle sc.rng kinds;
    Array.iter (fun k -> Queue.add (make k sc) sc.pending) kinds
  end;
  Queue.pop sc.pending

(* ---- references ---- *)

let reference = function
  | Named (a, t) ->
    let c = Pipeline.check (Pipeline.Named (a, t)) in
    Some (Json.to_string c.Pipeline.report, c.Pipeline.exit_code)
  | Source text ->
    let c = Pipeline.check (Pipeline.Spec text) in
    Some (Json.to_string c.Pipeline.report, c.Pipeline.exit_code)
  | Campaign c -> (
    let module S = Dfr_scenario.Scenario in
    let net, algo = Pipeline.resolve (Pipeline.Named (c.algo, Some c.topology)) in
    let mode = if c.sweep then `Sweep else `Sequence in
    match Result.bind (Dfr_scenario.Fault.parse c.plan) (S.campaign ~mode net algo) with
    | Ok r -> Some (Json.to_string (S.campaign_to_json r), r.S.exit_code)
    | Error msg -> Table.fail "campaign: %s" msg)
  | Nothing -> None

(* ---- the workload ---- *)

let run (ctx : Table.ctx) (o : Table.outcome) =
  let sc = script ctx in
  let seen : (key, string * int) Hashtbl.t = Hashtbl.create 512 in
  let cached = ref 0 and checks = ref 0 and fast = ref 0 and deltas = ref 0 in
  (* [n] responses carried exactly these bytes *)
  let check ~n (r : req) line =
    match Json.of_string line with
    | Error msg -> Some ("unparseable response: " ^ msg)
    | Ok doc -> (
      let member k = Json.member k doc in
      let flag k = member k = Some (Json.Bool true) in
      if not (flag "ok") then Some ("request failed: " ^ line)
      else begin
        (match r.kind with
        | Hit | Miss | Spec ->
          checks := !checks + n;
          if flag "cached" then cached := !cached + n
        | Delta ->
          incr deltas;
          if Option.bind (member "delta") (Json.member "mode") = Some (s "fast") then incr fast
        | _ -> ());
        let report = match member "report" with Some j -> Some j | None -> member "campaign" in
        let exit_code = Option.value ~default:0 (Option.bind (member "exit") Json.to_int) in
        match (r.kind, report) with
        | (Hit | Spec), _ when not (flag "cached") -> Some "expected a cache hit"
        | Miss, _ when flag "cached" -> Some "expected a cold miss"
        | Delta, _ when Option.bind (member "digest") Json.to_str <> r.digest ->
          Some "delta digest differs"
        | _, None -> None
        | _, Some j -> (
          let bytes = Json.to_string j in
          match Hashtbl.find_opt seen r.key with
          | None ->
            Hashtbl.add seen r.key (bytes, exit_code);
            None
          | Some (b, e) when b = bytes && e = exit_code -> None
          | Some _ -> Some "responses for the same problem differ")
      end)
  in
  let verify ?(n = 1) r line = Table.attempt ~n o (check ~n r line) in
  let trace_file = Table.work_file ctx (ctx.wl.Table.wname ^ ".serve-trace.json") in
  let rss = ref 0. in
  let send (sess : Proc.session) line =
    output_string sess.Proc.send line;
    output_char sess.Proc.send '\n';
    flush sess.Proc.send
  in
  let stop sess =
    send sess (request [ ("op", s "shutdown") ]);
    ignore (input_line sess.Proc.recv);
    let ex = Proc.close_session sess in
    rss := Float.max !rss ex.Proc.rss_mb;
    if ex.Proc.code <> 0 then Table.failure o "dfcheck serve exited %d" ex.Proc.code
  in
  (* set-up: start the server, fill the verdict cache with every hit and
     spec, and seed the delta chain's session *)
  let setup () =
    let t0 = Proc.now () in
    let sess =
      Proc.open_session ~log:(Table.log ctx) ctx.dfcheck
        ("serve" :: (if ctx.trace then [ "--trace"; trace_file ] else []))
    in
    let warm key line =
      send sess line;
      verify { kind = Warm; key; digest = None; line } (input_line sess.Proc.recv)
    in
    warm Nothing (request [ ("op", s "ping") ]);
    Array.iter (fun (a, t) -> warm (Named (a, t)) (named_line a t)) sc.hits;
    Array.iter (fun text -> warm (Source text) (spec_line text)) sc.specs;
    warm (Source sc.at) (delta_line ~base:"none" sc.at);
    let t1 = Proc.now () in
    Speed.tick ctx.speed;
    ((t1, t1 -. t0), sess)
  in
  let setups = List.init (Table.setups ctx) (fun _ -> setup ()) in
  let sess = snd (List.hd (List.rev setups)) in
  List.iter (fun (_, s) -> if s != sess then stop s) setups;
  (* The closed loop.  Responses are checked after it: the loop only
     keeps the first response to each request (and any that differs from
     it), so the clients spend next to no time between a response and
     their next request.  Deltas answer with their base, so each is kept.
     When a speed probe is due, the clients stop sending until both
     requests are answered, and the probe runs with the server idle. *)
  let min_ops = Table.int_or "min_ops" 1 ctx.params in
  let outstanding = Queue.create () in
  let firsts = Hashtbl.create 256 and others = ref [] and latencies = ref [] in
  let sent = ref 0 in
  let t0 = Proc.now () in
  let more () = !sent < min_ops || Proc.now () -. t0 < ctx.seconds in
  while more () || not (Queue.is_empty outstanding) do
    while Queue.length outstanding < 2 && more () && not (Speed.due ctx.speed) do
      let r = next sc in
      Queue.add (!sent, r, Spans.now_us ctx.spans) outstanding;
      send sess r.line;
      incr sent
    done;
    if Queue.is_empty outstanding then Speed.tick ctx.speed
    else begin
      let line = input_line sess.Proc.recv in
      let at = Proc.now () and end_us = Spans.now_us ctx.spans in
      let i, r, start_us = Queue.pop outstanding in
      Spans.record ctx.spans ~req:i ("serve." ^ kind_name r.kind) ~start_us ~end_us;
      latencies := (r.kind, (at, (end_us -. start_us) /. 1000.)) :: !latencies;
      match Hashtbl.find_opt firsts (r.kind, r.key) with
      | Some (_, first, n) when r.kind <> Delta && String.equal first line -> incr n
      | Some _ -> others := (r, line) :: !others
      | None -> Hashtbl.add firsts (r.kind, r.key) (r, line, ref 1)
    end
  done;
  let loop = (t0, Proc.now ()) in
  let start_us = Spans.now_us ctx.spans in
  stop sess;
  Spans.adopt ctx.spans ~start_us ~label:"dfcheck serve" trace_file;
  Hashtbl.iter (fun _ (r, line, n) -> verify ~n:!n r line) firsts;
  List.iter (fun (r, line) -> verify r line) !others;
  (* one in-process reference per distinct problem *)
  let inproc_ms = ref [] in
  Hashtbl.iter
    (fun key (bytes, exit_code) ->
      let t0 = Proc.now () in
      match reference key with
      | None -> ()
      | Some (b, e) ->
        (match key with
        | Named (_, Some _) -> inproc_ms := ((Proc.now () -. t0) *. 1000.) :: !inproc_ms
        | _ -> ());
        if b <> bytes || e <> exit_code then
          Table.failure o "served bytes differ from the in-process reference")
    seen;
  let latencies = List.rev !latencies in
  Table.e2e o ~setups:(List.map fst setups) ~samples:(List.map snd latencies) ~loop ~rss_mb:!rss;
  let of_kind k =
    List.filter_map (fun (k', (_, ms)) -> if k' = k then Some ms else None) latencies
  in
  let op k =
    let v = of_kind k in
    ( kind_name k,
      Json.Obj
        [
          ("n", Json.Int (List.length v));
          ("p50_ms", Json.Float (Stats.percentile v 0.5));
          ("p99_ms", Json.Float (Stats.percentile v 0.99));
        ] )
  in
  Table.detail o "ops" (Json.Obj (List.map op [ Hit; Miss; Spec; Delta; Scenario; Ping ]));
  Table.detail o "miss_vs_inproc"
    (Json.Float (Stats.median (of_kind Miss) /. Stats.median !inproc_ms));
  let frac a b = float_of_int a /. float_of_int (max 1 b) in
  Table.metric o "serve.cache_hit_frac" "fraction" (frac !cached !checks);
  Table.metric o "incr.fast_frac" "fraction" (frac !fast !deltas);
  Table.not_reached o [ ("incr.patched_dests", "count"); ("incr.reemitted_dests", "count") ];
  if ctx.trace then
    ignore
      (Pipeline.per_layer ctx o
         (List.map
            (fun j ->
              let a, t = instance j in
              Pipeline.Named (a, t))
            (Table.list "misses" ctx.params)
         @ List.map (fun t -> Pipeline.Spec t) (Array.to_list sc.specs)))
