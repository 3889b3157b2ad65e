open Dfr_network
open Dfr_routing
open Dfr_util

let buffer_name net b = Json.String (Net.describe_buffer net b)

let state_json net (b, d) =
  Json.Obj [ ("buffer", buffer_name net b); ("dest", Json.Int d) ]

let packet_json net (p : Cycle_class.packet) =
  Json.Obj
    [
      ("dest", Json.Int p.Cycle_class.dest);
      ("occupies", Json.List (List.map (buffer_name net) p.Cycle_class.path));
      ("waits_for", buffer_name net p.Cycle_class.waits_for);
    ]

let verdict_json net = function
  | Checker.Deadlock_free proof ->
    let detail =
      match proof with
      | Checker.Acyclic_bwg -> [ ("theorem", Json.Int 1) ]
      | Checker.No_true_cycles { cycles_examined } ->
        [ ("theorem", Json.Int 2); ("false_cycles", Json.Int cycles_examined) ]
      | Checker.Reduced_bwg { via_hint; removed } ->
        [
          ("theorem", Json.Int 3);
          ("via_hint", Json.Bool via_hint);
          ( "removed_waits",
            Json.List
              (List.map
                 (fun (r : Reduction.removed) ->
                   Json.Obj
                     [
                       ("head", buffer_name net r.Reduction.head);
                       ("dest", Json.Int r.Reduction.dest);
                       ("target", buffer_name net r.Reduction.target);
                     ])
                 removed) );
        ]
    in
    Json.Obj (("result", Json.String "deadlock-free") :: detail)
  | Checker.Deadlock_possible failure ->
    let detail =
      match failure with
      | Checker.Stuck_states states ->
        [
          ("kind", Json.String "stuck-states");
          ("states", Json.List (List.map (state_json net) states));
        ]
      | Checker.Not_wait_connected states ->
        [
          ("kind", Json.String "not-wait-connected");
          ("states", Json.List (List.map (state_json net) states));
        ]
      | Checker.Knot config ->
        [
          ("kind", Json.String "knot");
          ("packets", Json.List (List.map (state_json net) config));
        ]
      | Checker.True_cycle { cycle; packets } ->
        [
          ("kind", Json.String "true-cycle");
          ("cycle", Json.List (List.map (buffer_name net) cycle));
          ("packets", Json.List (List.map (packet_json net) packets));
        ]
      | Checker.No_reduction { cycle; packets } ->
        [
          ("kind", Json.String "no-reduction");
          ("cycle", Json.List (List.map (buffer_name net) cycle));
          ("packets", Json.List (List.map (packet_json net) packets));
        ]
    in
    Json.Obj (("result", Json.String "deadlock") :: detail)
  | Checker.Unknown reason ->
    Json.Obj [ ("result", Json.String "unknown"); ("reason", Json.String reason) ]

(* The one constructor of the report object.  Every surface that renders a
   checker outcome as JSON — `dfcheck check --json', `dfcheck spec check
   --json', the audit, the serving layer's cached verdicts, and the
   incremental re-checker — goes through here, so none of them can drift
   apart field by field.  The BWG contributes only its vertex and edge
   counts. *)
let of_outcome ?metrics net algo (report : Checker.report) =
  let g = Bwg.graph report.Checker.bwg in
  let fields =
    [
      ("algorithm", Json.String algo.Algo.name);
      ( "waiting",
        Json.String
          (match algo.Algo.wait with
          | Algo.Specific_wait -> "specific"
          | Algo.Any_wait -> "any") );
      ("network", Json.String (Net.name net));
      ("nodes", Json.Int (Net.num_nodes net));
      ("buffers", Json.Int (Net.num_buffers net));
      ( "bwg",
        Json.Obj
          [
            ("vertices", Json.Int (Dfr_graph.Digraph.num_vertices g));
            ("edges", Json.Int (Dfr_graph.Digraph.num_edges g));
            ( "cycles",
              match report.Checker.bwg_cycles with
              | Some n -> Json.Int n
              | None -> Json.Null );
          ] );
      ("verdict", verdict_json net report.Checker.verdict);
    ]
  in
  (* the report parser ignores unknown fields, so appending is compatible *)
  match metrics with
  | Some m -> Json.Obj (fields @ [ ("metrics", m) ])
  | None -> Json.Obj fields

let of_report net algo report = of_outcome net algo report
let to_string net algo report = Json.to_string_pretty (of_report net algo report)

(* Exit codes (kept machine-checkable, see test/cli_exit_codes.sh):
     0  deadlock-free / success
     1  deadlock found
     3  verdict Unknown (a cap or budget was hit)
   The CLI and the serve protocol's "exit" field both read this table, so
   a script can treat a served response exactly like a process status. *)
let exit_code = function
  | Checker.Deadlock_free _ -> 0
  | Checker.Deadlock_possible _ -> 1
  | Checker.Unknown _ -> 3

(* ------------------------------------------------------------------ *)
(* parsing, for downstream tooling that consumes checker output        *)

type summary = {
  algorithm : string;
  waiting : Algo.wait_discipline;
  network : string;
  nodes : int;
  buffers : int;
  bwg_vertices : int;
  bwg_edges : int;
  bwg_cycles : int option;
  result : string;
  theorem : int option;
  failure_kind : string option;
  cycle : string list;
}

let of_string s =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let field name conv doc =
    match Option.bind (Json.member name doc) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "report is missing field %S" name)
  in
  let* doc = Json.of_string s in
  let* algorithm = field "algorithm" Json.to_str doc in
  let* waiting_s = field "waiting" Json.to_str doc in
  let* waiting =
    match waiting_s with
    | "specific" -> Ok Algo.Specific_wait
    | "any" -> Ok Algo.Any_wait
    | w -> Error (Printf.sprintf "unknown waiting discipline %S" w)
  in
  let* network = field "network" Json.to_str doc in
  let* nodes = field "nodes" Json.to_int doc in
  let* buffers = field "buffers" Json.to_int doc in
  let* bwg = field "bwg" Option.some doc in
  let* bwg_vertices = field "vertices" Json.to_int bwg in
  let* bwg_edges = field "edges" Json.to_int bwg in
  let bwg_cycles = Option.bind (Json.member "cycles" bwg) Json.to_int in
  let* verdict = field "verdict" Option.some doc in
  let* result = field "result" Json.to_str verdict in
  let theorem = Option.bind (Json.member "theorem" verdict) Json.to_int in
  let failure_kind = Option.bind (Json.member "kind" verdict) Json.to_str in
  let cycle =
    match Option.bind (Json.member "cycle" verdict) Json.to_list with
    | Some items -> List.filter_map Json.to_str items
    | None -> []
  in
  Ok
    {
      algorithm;
      waiting;
      network;
      nodes;
      buffers;
      bwg_vertices;
      bwg_edges;
      bwg_cycles;
      result;
      theorem;
      failure_kind;
      cycle;
    }
