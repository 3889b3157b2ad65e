open Dfr_util
open Dfr_network

type result = { deadlocked : bool; report : Json.t; text : string; p100 : int option }

let render ~simulator ~nodes o =
  let outcome, stuck =
    match o with
    | Drive.Completed _ -> ("completed", [])
    | Drive.Timeout _ -> ("timeout", [])
    | Drive.Deadlocked { cycle; in_flight; wait_for; _ } ->
      ( "deadlock",
        ("deadlock_cycle", Json.Int cycle)
        :: ("in_flight", Json.Int in_flight)
        ::
        (match wait_for with
        | None -> []
        | Some edges ->
          [
            ( "wait_for",
              Json.List
                (List.map (fun (p, q) -> Json.List [ Json.Int p; Json.Int q ]) edges)
            );
          ]) )
  in
  {
    deadlocked = Drive.is_deadlocked o;
    report =
      Json.Obj
        (("simulator", Json.String simulator)
        :: ("outcome", Json.String outcome)
        :: (stuck @ [ ("stats", Stats.to_json (Drive.stats o) ~nodes) ]));
    text = Format.asprintf "%a" Drive.pp_outcome o;
    p100 = None;
  }

let run net algo traffic =
  let nodes = Net.num_nodes net in
  match Net.switching net with
  | Net.Wormhole -> (
    let o = Wormhole_sim.run net algo traffic in
    let r = render ~simulator:"wormhole" ~nodes o in
    match o with
    | Drive.Completed s -> { r with p100 = Some (Stats.percentile_latency s 1.0) }
    | Drive.Deadlocked _ | Drive.Timeout _ -> r)
  | Net.Store_and_forward | Net.Virtual_cut_through ->
    render ~simulator:"saf" ~nodes (Saf_sim.run net algo traffic)
