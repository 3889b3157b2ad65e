open Dfr_network
open Dfr_routing

type config = { fifo_depth : int; max_cycles : int; seed : int }

let default_config = { fifo_depth = 4; max_cycles = 200_000; seed = 1 }

type flit = { pkt : int; is_head : bool; is_tail : bool }

(* Per-virtual-channel state machine; [Routing] and [Waiting] hold the
   packet whose header sits at the FIFO head — the split models the
   one-cycle route-computation stage. *)
type vc_state =
  | Idle
  | Routing of int
  | Waiting of int
  | Active of { pkt : int; out : int }

type pkt = {
  id : int;
  dst : int;
  length : int;
  inject_at : int;
  mutable injected : int;
  mutable delivered : int;
  mutable finished : bool;
  mutable finish_cycle : int;
}

type sim = {
  net : Net.t;
  algo : Algo.t;
  cfg : config;
  packets : pkt array;
  fifo : flit Queue.t array; (* per buffer *)
  state : vc_state array;
  owner : int array; (* buffer -> packet (VC allocation to tail departure) *)
  free_slots : int array;
  credits : int array; (* per buffer: credits applied next cycle *)
  source_queue : int list array; (* per node, FIFO of packets to inject *)
  injecting : (int, int) Hashtbl.t; (* packet -> buffer it streams into *)
  rr_out : int array; (* VC-allocation round-robin pointer per buffer *)
  rr_link : (int * int * int, int) Hashtbl.t; (* SA round-robin per link *)
  used_links : (int * int * int, unit) Hashtbl.t; (* per-cycle *)
  delivery_used : bool array; (* per-node consumption port, per-cycle *)
  mutable events : int;
}

let link_free sim b =
  match Drive.link_key sim.net b with
  | None -> true
  | Some key -> not (Hashtbl.mem sim.used_links key)

let use_link sim b =
  match Drive.link_key sim.net b with
  | None -> ()
  | Some key -> Hashtbl.replace sim.used_links key ()

let is_transit sim b = Buf.is_transit (Net.buffer sim.net b)

let transit_route sim b ~dest =
  Drive.transit_route sim.net sim.algo (Net.buffer sim.net b) ~dest

(* [f key v] over [tbl] in ascending key order: arbitration must not
   depend on the hash function *)
let iter_sorted f tbl =
  List.iter
    (fun k -> f k (Hashtbl.find tbl k))
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []))

(* ---------- pipeline stages ------------------------------------------ *)

let apply_credits sim =
  Array.iteri
    (fun b n ->
      sim.free_slots.(b) <- sim.free_slots.(b) + n;
      sim.credits.(b) <- 0)
    sim.credits

let schedule_credit sim b = sim.credits.(b) <- sim.credits.(b) + 1

(* Consume one flit per node per cycle from delivery-bound VCs. *)
let consumption sim cycle =
  Array.iteri
    (fun b st ->
      match st with
      | Active { pkt; out } when not (is_transit sim out) ->
        let p = sim.packets.(pkt) in
        if (not (Queue.is_empty sim.fifo.(b))) && not sim.delivery_used.(p.dst)
        then begin
          sim.delivery_used.(p.dst) <- true;
          let flit = Queue.pop sim.fifo.(b) in
          schedule_credit sim b;
          p.delivered <- p.delivered + 1;
          sim.events <- sim.events + 1;
          if flit.is_tail then begin
            sim.owner.(b) <- -1;
            sim.state.(b) <- Idle
          end;
          if p.delivered >= p.length then begin
            p.finished <- true;
            p.finish_cycle <- cycle
          end
        end
      | Idle | Routing _ | Waiting _ | Active _ -> ())
    sim.state

(* Switch allocation + traversal: one flit per physical link per cycle,
   round-robin among the competing active VCs. *)
let switch_traversal sim =
  let candidates = Hashtbl.create 32 in
  Array.iteri
    (fun b st ->
      match st with
      | Active { out; _ }
        when is_transit sim out
             && (not (Queue.is_empty sim.fifo.(b)))
             && sim.free_slots.(out) > 0 -> (
        match Drive.link_key sim.net out with
        | Some key ->
          let l = Option.value (Hashtbl.find_opt candidates key) ~default:[] in
          Hashtbl.replace candidates key ((b, out) :: l)
        | None -> ())
      | _ -> ())
    sim.state;
  iter_sorted
    (fun key reqs ->
      let reqs = List.rev reqs in
      let n = List.length reqs in
      let ptr = Option.value (Hashtbl.find_opt sim.rr_link key) ~default:0 in
      let b, out = List.nth reqs (ptr mod n) in
      Hashtbl.replace sim.rr_link key (ptr + 1);
      let flit = Queue.pop sim.fifo.(b) in
      Queue.push flit sim.fifo.(out);
      sim.free_slots.(out) <- sim.free_slots.(out) - 1;
      use_link sim out;
      schedule_credit sim b;
      sim.events <- sim.events + 1;
      if flit.is_head then sim.state.(out) <- Routing flit.pkt;
      if flit.is_tail then begin
        sim.owner.(b) <- -1;
        sim.state.(b) <- Idle
      end)
    candidates

(* Source streaming: packets granted a first VC push one flit per cycle. *)
let injection sim =
  let done_ = ref [] in
  iter_sorted
    (fun pkt target ->
      let p = sim.packets.(pkt) in
      if p.injected < p.length && sim.free_slots.(target) > 0 && link_free sim target
      then begin
        let flit =
          { pkt; is_head = p.injected = 0; is_tail = p.injected = p.length - 1 }
        in
        Queue.push flit sim.fifo.(target);
        sim.free_slots.(target) <- sim.free_slots.(target) - 1;
        use_link sim target;
        p.injected <- p.injected + 1;
        sim.events <- sim.events + 1;
        if flit.is_head then sim.state.(target) <- Routing pkt;
        if flit.is_tail then done_ := pkt :: !done_
      end)
    sim.injecting;
  List.iter (Hashtbl.remove sim.injecting) !done_

(* Route computation: one cycle after the header arrives. *)
let route_computation sim =
  Array.iteri
    (fun b st ->
      match st with
      | Routing pkt ->
        sim.state.(b) <- Waiting pkt;
        sim.events <- sim.events + 1
      | Idle | Waiting _ | Active _ -> ())
    sim.state

(* Virtual-channel allocation with per-output round-robin arbitration. *)
let vc_allocation sim cycle =
  let requests = Hashtbl.create 32 in
  let add_request out_b requester =
    let l = Option.value (Hashtbl.find_opt requests out_b) ~default:[] in
    Hashtbl.replace requests out_b (requester :: l)
  in
  Array.iteri
    (fun b st ->
      match st with
      | Waiting pkt ->
        let p = sim.packets.(pkt) in
        if Buf.head_node (Net.buffer sim.net b) = p.dst then begin
          sim.state.(b) <- Active { pkt; out = Buf.id (Net.delivery sim.net p.dst) };
          sim.events <- sim.events + 1
        end
        else
          List.iter
            (fun o -> if sim.owner.(o) = -1 then add_request o (`Vc (b, pkt)))
            (transit_route sim b ~dest:p.dst)
      | Idle | Routing _ | Active _ -> ())
    sim.state;
  Array.iteri
    (fun node queue ->
      match queue with
      | pkt :: _ ->
        let p = sim.packets.(pkt) in
        if cycle >= p.inject_at then begin
          let inj = Buf.id (Net.injection sim.net node) in
          List.iter
            (fun o -> if sim.owner.(o) = -1 then add_request o (`Source (node, pkt)))
            (transit_route sim inj ~dest:p.dst)
        end
      | [] -> ())
    sim.source_queue;
  (* a requester may appear at several outputs; it must win at most one
     per cycle or the extra grants leak buffer ownership forever *)
  let granted = Hashtbl.create 16 in
  let requester_key = function
    | `Vc (b, _) -> `B b
    | `Source (node, _) -> `S node
  in
  iter_sorted
    (fun out_b reqs ->
      let reqs = List.rev reqs in
      let n = List.length reqs in
      let start = sim.rr_out.(out_b) in
      sim.rr_out.(out_b) <- sim.rr_out.(out_b) + 1;
      let rec pick i =
        if i >= n then None
        else
          let cand = List.nth reqs ((start + i) mod n) in
          if Hashtbl.mem granted (requester_key cand) then pick (i + 1)
          else Some cand
      in
      match pick 0 with
      | None -> ()
      | Some grant ->
        Hashtbl.replace granted (requester_key grant) ();
        sim.events <- sim.events + 1;
        (match grant with
        | `Vc (b, pkt) ->
          sim.owner.(out_b) <- pkt;
          sim.state.(b) <- Active { pkt; out = out_b }
        | `Source (node, pkt) ->
          sim.owner.(out_b) <- pkt;
          (match sim.source_queue.(node) with
          | p :: rest when p = pkt -> sim.source_queue.(node) <- rest
          | _ -> ());
          Hashtbl.replace sim.injecting pkt out_b))
    requests

(* ---------- driver ---------------------------------------------------- *)

let step sim cycle =
  sim.events <- 0;
  Hashtbl.reset sim.used_links;
  Array.fill sim.delivery_used 0 (Array.length sim.delivery_used) false;
  apply_credits sim;
  vc_allocation sim cycle;
  route_computation sim;
  consumption sim cycle;
  switch_traversal sim;
  injection sim;
  sim.events

let run ?(config = default_config) net algo traffic =
  let packets =
    Array.of_list
      (List.mapi
         (fun id (t : Traffic.packet) ->
           {
             id;
             dst = t.Traffic.dst;
             length = max 1 t.Traffic.length;
             inject_at = t.Traffic.inject_at;
             injected = 0;
             delivered = 0;
             finished = false;
             finish_cycle = 0;
           })
         traffic)
  in
  let nb = Net.num_buffers net in
  let source_queue = Array.make (Net.num_nodes net) [] in
  List.iteri
    (fun id (t : Traffic.packet) ->
      source_queue.(t.Traffic.src) <- id :: source_queue.(t.Traffic.src))
    traffic;
  Array.iteri (fun n q -> source_queue.(n) <- List.rev q) source_queue;
  let sim =
    {
      net;
      algo;
      cfg = config;
      packets;
      fifo = Array.init nb (fun _ -> Queue.create ());
      state = Array.make nb Idle;
      owner = Array.make nb (-1);
      free_slots = Array.make nb config.fifo_depth;
      credits = Array.make nb 0;
      source_queue;
      injecting = Hashtbl.create 16;
      rr_out = Array.make nb 0;
      rr_link = Hashtbl.create 64;
      used_links = Hashtbl.create 64;
      delivery_used = Array.make (Net.num_nodes net) false;
      events = 0;
    }
  in
  Drive.run
    {
      Drive.name = "router";
      max_cycles = config.max_cycles;
      step = step sim;
      tally =
        (fun cycle ->
          {
            Drive.unfinished = Array.exists (fun p -> not p.finished) packets;
            pending =
              Array.exists
                (fun p -> (not p.finished) && p.injected = 0 && p.inject_at > cycle)
                packets;
            in_flight =
              Array.fold_left
                (fun acc p ->
                  if (not p.finished) && p.injected > 0 then acc + 1 else acc)
                0 packets;
          });
      progress =
        (fun () ->
          Array.map
            (fun p ->
              {
                Drive.inject_at = p.inject_at;
                injected = p.injected > 0;
                flits = p.delivered;
                finished = (if p.finished then Some p.finish_cycle else None);
              })
            packets);
      wait_for = None;
    }
