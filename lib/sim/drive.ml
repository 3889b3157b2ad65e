open Dfr_network
open Dfr_routing

type preload = { chain : int list; dest : int; frozen : bool }

type outcome =
  | Completed of Stats.t
  | Deadlocked of {
      cycle : int;
      in_flight : int;
      stats : Stats.t;
      wait_for : (int * int) list option;
    }
  | Timeout of Stats.t

type tally = { unfinished : bool; pending : bool; in_flight : int }

type progress = {
  inject_at : int;
  injected : bool;
  flits : int;
  finished : int option;
}

type model = {
  name : string;
  max_cycles : int;
  step : int -> int;
  tally : int -> tally;
  progress : unit -> progress array;
  wait_for : (int -> (int * int) list) option;
}

let collect packets cycle =
  let injected = ref 0 and delivered = ref 0 and flits = ref 0 in
  let latencies = ref [] in
  Array.iter
    (fun p ->
      if p.injected then incr injected;
      flits := !flits + p.flits;
      match p.finished with
      | Some c ->
        incr delivered;
        latencies := (c - p.inject_at + 1) :: !latencies
      | None -> ())
    packets;
  {
    Stats.cycles = cycle;
    injected = !injected;
    delivered = !delivered;
    flits_delivered = !flits;
    latencies = !latencies;
  }

let observe name (s : Stats.t) ~events ~stalls =
  let module Obs = Dfr_obs.Obs in
  let name k = "sim." ^ name ^ "." ^ k in
  Obs.count (name "cycles") s.Stats.cycles;
  Obs.count (name "events") events;
  Obs.count (name "stalls") stalls;
  if s.Stats.cycles > 0 then
    Obs.gauge (name "flits-per-kcycle")
      (1000.0 *. float_of_int s.Stats.flits_delivered /. float_of_int s.Stats.cycles);
  s

let run m =
  Dfr_obs.Obs.span ("sim." ^ m.name ^ ".run") @@ fun () ->
  let silent = ref 0 in
  let total_events = ref 0 and stalls = ref 0 in
  let ended = ref None in
  let cycle = ref 0 in
  while !ended = None && !cycle < m.max_cycles do
    let events = m.step !cycle in
    let t = m.tally !cycle in
    if not t.unfinished then ended := Some (`Completed !cycle)
    else if events = 0 && not t.pending then begin
      incr silent;
      if !silent >= 3 then ended := Some (`Deadlocked (!cycle, t.in_flight))
    end
    else silent := 0;
    total_events := !total_events + events;
    if events = 0 then incr stalls;
    incr cycle
  done;
  let stats c =
    observe m.name (collect (m.progress ()) c) ~events:!total_events ~stalls:!stalls
  in
  match !ended with
  | Some (`Completed c) -> Completed (stats c)
  | Some (`Deadlocked (c, in_flight)) ->
    Deadlocked
      {
        cycle = c;
        in_flight;
        stats = stats c;
        wait_for = Option.map (fun edges -> edges c) m.wait_for;
      }
  | None -> Timeout (stats m.max_cycles)

let transit_route net algo b ~dest =
  algo.Algo.route net b ~dest
  |> List.filter (fun o -> Buf.is_transit (Net.buffer net o))

let link_key net b =
  match Buf.kind (Net.buffer net b) with
  | Buf.Channel { src; dim; dir; _ } ->
    Some (src, dim, if dir = Dfr_topology.Topology.Plus then 1 else 0)
  | _ -> None

let is_deadlocked = function
  | Deadlocked _ -> true
  | Completed _ | Timeout _ -> false

let stats = function
  | Completed s | Timeout s -> s
  | Deadlocked { stats; _ } -> stats

let pp_outcome fmt = function
  | Completed s -> Format.fprintf fmt "completed (%a)" Stats.pp s
  | Deadlocked { cycle; in_flight; stats; wait_for = Some edges } ->
    Format.fprintf fmt
      "DEADLOCK at cycle %d with %d packets in flight, %d wait-for edges (%a)"
      cycle in_flight (List.length edges) Stats.pp stats
  | Deadlocked { cycle; in_flight; stats; wait_for = None } ->
    Format.fprintf fmt "DEADLOCK at cycle %d with %d packets in flight (%a)" cycle
      in_flight Stats.pp stats
  | Timeout s -> Format.fprintf fmt "timeout (%a)" Stats.pp s
