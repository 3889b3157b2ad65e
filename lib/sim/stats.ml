type t = {
  cycles : int;
  injected : int;
  delivered : int;
  flits_delivered : int;
  latencies : int list;
}

let empty =
  { cycles = 0; injected = 0; delivered = 0; flits_delivered = 0; latencies = [] }

let mean_latency t =
  match t.latencies with
  | [] -> None
  | ls ->
    Some
      (float_of_int (List.fold_left ( + ) 0 ls) /. float_of_int (List.length ls))

let max_latency t =
  match t.latencies with
  | [] -> None
  | l :: ls -> Some (List.fold_left max l ls)

(* Nearest-rank: the p-th percentile of n sorted samples is the one at
   rank ceil(p*n), 1-based.  The previous truncating [int_of_float
   (p *. n)] was off by one rank: p50 of [1;2] returned 2, and p95 over
   exactly 20 samples returned the max. *)
let percentile_latency t p =
  match t.latencies with
  | [] -> 0
  | ls ->
    let sorted = Array.of_list ls in
    Array.sort Int.compare sorted;
    let n = Array.length sorted in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let throughput t ~nodes =
  if t.cycles = 0 then 0.0
  else float_of_int t.flits_delivered /. float_of_int t.cycles /. float_of_int nodes

let pp fmt t =
  Format.fprintf fmt "cycles=%d injected=%d delivered=%d flits=%d mean-latency=%s"
    t.cycles t.injected t.delivered t.flits_delivered
    (match mean_latency t with
    | None -> "n/a"
    | Some m -> Printf.sprintf "%.1f" m)

let to_json t ~nodes =
  let module J = Dfr_util.Json in
  J.Obj
    [
      ("cycles", J.Int t.cycles);
      ("injected", J.Int t.injected);
      ("delivered", J.Int t.delivered);
      ("flits_delivered", J.Int t.flits_delivered);
      ( "mean_latency",
        match mean_latency t with None -> J.Null | Some m -> J.Float m );
      ( "max_latency",
        match max_latency t with None -> J.Null | Some m -> J.Int m );
      ("p50_latency", J.Int (percentile_latency t 0.5));
      ("p95_latency", J.Int (percentile_latency t 0.95));
      ("throughput", J.Float (throughput t ~nodes));
    ]
