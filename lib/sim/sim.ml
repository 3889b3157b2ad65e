open Dfr_util
open Dfr_network

type result = { deadlocked : bool; report : Json.t; text : string; p100 : int option }

let make ~simulator ~nodes ~pp o ~outcome ~stats ?(extra = []) ?p100 () =
  {
    deadlocked = outcome = "deadlock";
    report =
      Json.Obj
        (("simulator", Json.String simulator)
        :: ("outcome", Json.String outcome)
        :: (extra @ [ ("stats", Stats.to_json stats ~nodes) ]));
    text = Format.asprintf "%a" pp o;
    p100;
  }

let stuck ~cycle ~in_flight =
  [ ("deadlock_cycle", Json.Int cycle); ("in_flight", Json.Int in_flight) ]

let of_wormhole ~nodes o =
  let make = make ~simulator:"wormhole" ~nodes ~pp:Wormhole_sim.pp_outcome o in
  match o with
  | Wormhole_sim.Completed s ->
    make ~outcome:"completed" ~stats:s ~p100:(Stats.percentile_latency s 1.0) ()
  | Wormhole_sim.Timeout s -> make ~outcome:"timeout" ~stats:s ()
  | Wormhole_sim.Deadlocked { cycle; in_flight; stats; wait_for } ->
    make ~outcome:"deadlock" ~stats
      ~extra:
        (stuck ~cycle ~in_flight
        @ [
            ( "wait_for",
              Json.List
                (List.map (fun (p, q) -> Json.List [ Json.Int p; Json.Int q ]) wait_for)
            );
          ])
      ()

let of_saf ~nodes o =
  let make = make ~simulator:"saf" ~nodes ~pp:Saf_sim.pp_outcome o in
  match o with
  | Saf_sim.Completed s -> make ~outcome:"completed" ~stats:s ()
  | Saf_sim.Timeout s -> make ~outcome:"timeout" ~stats:s ()
  | Saf_sim.Deadlocked { cycle; in_flight; stats } ->
    make ~outcome:"deadlock" ~stats ~extra:(stuck ~cycle ~in_flight) ()

let of_router ~nodes o =
  let make = make ~simulator:"router" ~nodes ~pp:Router_sim.pp_outcome o in
  match o with
  | Router_sim.Completed s -> make ~outcome:"completed" ~stats:s ()
  | Router_sim.Timeout s -> make ~outcome:"timeout" ~stats:s ()
  | Router_sim.Deadlocked { cycle; in_flight; stats } ->
    make ~outcome:"deadlock" ~stats ~extra:(stuck ~cycle ~in_flight) ()

let run net algo traffic =
  let nodes = Net.num_nodes net in
  match Net.switching net with
  | Net.Wormhole -> of_wormhole ~nodes (Wormhole_sim.run net algo traffic)
  | Net.Store_and_forward | Net.Virtual_cut_through ->
    of_saf ~nodes (Saf_sim.run net algo traffic)
