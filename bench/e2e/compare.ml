(* dfbench compare: one row per workload x end-to-end metric between two
   sets of result files, each side's median and quartiles over its runs,
   against the metric's bound from BENCHMARK.json.  A row is unresolved
   when either side's quartile spread is wider than the bound. *)

module Json = Dfr_util.Json

(* (workload, metric) -> values over every run of every file *)
let values files =
  let h = Hashtbl.create 64 in
  List.iter
    (fun file ->
      List.iter
        (fun run ->
          let w = Table.str "workload" run in
          match Table.field "metrics" run with
          | Json.Obj ms ->
            List.iter
              (fun (m, v) ->
                let old = Option.value ~default:[] (Hashtbl.find_opt h (w, m)) in
                Hashtbl.replace h (w, m) (Table.num (Table.field "value" v) :: old))
              ms
          | _ -> ())
        (Table.list "runs" (Table.read_json file)))
    files;
  h

let verdict (m : Table.metric) a b =
  let spread (q1, med, q3) = (q3 -. q1) /. Float.abs med in
  let _, ma, _ = a and _, mb, _ = b in
  if Float.max (spread a) (spread b) > m.Table.bound then "unresolved"
  else
    let change = (mb -. ma) /. Float.abs ma in
    let worse = if m.Table.lower_better then change else -.change in
    if worse > m.Table.bound then "worse" else if worse < -.m.Table.bound then "better" else "same"

(* One row per workload x end-to-end metric present on both sides:
   workload, metric, both sides' quartiles and the verdict. *)
let rows ~root side_a side_b =
  let bench = Table.load_bench root in
  let a = values side_a and b = values side_b in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (m : Table.metric) ->
          match (Hashtbl.find_opt a (w, m.Table.name), Hashtbl.find_opt b (w, m.Table.name)) with
          | Some va, Some vb ->
            let qa = Stats.quartiles va and qb = Stats.quartiles vb in
            Some (w, m, qa, qb, verdict m qa qb)
          | _ -> None)
        bench.Table.end_to_end)
    bench.Table.workload_names

let run ~root side_a side_b =
  let rows = rows ~root side_a side_b in
  let cell (q1, med, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3 in
  Printf.printf "%-16s %-12s %-30s %-30s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "bound" "verdict";
  List.iter
    (fun (w, (m : Table.metric), qa, qb, v) ->
      Printf.printf "%-16s %-12s %-30s %-30s %5.0f%%  %s\n" w m.Table.name (cell qa) (cell qb)
        (100. *. m.Table.bound) v)
    rows;
  if List.exists (fun (_, _, _, _, v) -> v = "worse") rows then 1 else 0
