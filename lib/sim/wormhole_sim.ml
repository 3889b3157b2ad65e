open Dfr_network
open Dfr_routing
open Dfr_util

type selection = First_free | Random_free

type config = {
  capacity : int;
  max_cycles : int;
  seed : int;
  selection : selection;
}

let default_config =
  { capacity = 4; max_cycles = 100_000; seed = 1; selection = Random_free }

type pkt = {
  id : int;
  src : int;
  dst : int;
  length : int;
  inject_at : int;
  mutable script : int list;
  mutable route : int list; (* owned buffers, oldest (tail) first *)
  mutable injected : int; (* flits that have left the source *)
  mutable delivered : int;
  mutable finished : bool;
  mutable finish_cycle : int;
  frozen : bool;
}

type sim = {
  net : Net.t;
  algo : Algo.t;
  cfg : config;
  rng : Prng.t;
  owner : int array; (* buffer id -> packet id, -1 when free *)
  flits : int array; (* buffer id -> flits currently stored *)
  packets : pkt array;
  mutable events : int; (* events fired in the current cycle *)
  used_links : (int * int * int, unit) Hashtbl.t; (* per-cycle link usage *)
  delivery_used : bool array; (* per-node per-cycle consumption port *)
}

let link_free sim b =
  match Drive.link_key sim.net b with
  | None -> true
  | Some key -> not (Hashtbl.mem sim.used_links key)

let use_link sim b =
  match Drive.link_key sim.net b with
  | None -> ()
  | Some key -> Hashtbl.replace sim.used_links key ()

let rec last = function
  | [] -> invalid_arg "Wormhole_sim.last"
  | [ x ] -> x
  | _ :: rest -> last rest

let free_candidates sim candidates =
  List.filter (fun b -> sim.owner.(b) = -1) candidates

let select sim = function
  | [] -> None
  | [ b ] -> Some b
  | bs -> (
    match sim.cfg.selection with
    | First_free -> Some (List.hd bs)
    | Random_free -> Some (Prng.pick sim.rng bs))

let transit_route sim b ~dest = Drive.transit_route sim.net sim.algo b ~dest

(* Acquire [b] for packet [p], moving one flit out of [from_flits] (the
   head buffer, or the source if the packet is just entering). *)
let acquire sim p b ~drain =
  sim.owner.(b) <- p.id;
  drain ();
  sim.flits.(b) <- sim.flits.(b) + 1;
  use_link sim b;
  p.route <- p.route @ [ b ];
  (match p.script with _ :: rest -> p.script <- rest | [] -> ());
  sim.events <- sim.events + 1

(* The buffers a packet's header may take next — its script's next
   buffer, else the relation's transit outputs — from the source once the
   packet is due, or from the header's buffer short of the destination;
   none otherwise. *)
let header_candidates sim p cycle =
  let from b =
    match p.script with
    | nb :: _ -> [ nb ]
    | [] -> transit_route sim b ~dest:p.dst
  in
  match p.route with
  | [] ->
    if cycle >= p.inject_at && p.injected = 0 then
      from (Net.injection sim.net p.src)
    else []
  | route ->
    let h = Net.buffer sim.net (last route) in
    if Buf.head_node h <> p.dst then from h else []

(* Header progress: either first injection or route extension, once the
   header flit sits in the head buffer. *)
let try_head sim p cycle =
  let ready = match p.route with [] -> true | route -> sim.flits.(last route) > 0 in
  if ready then
    match select sim (free_candidates sim (header_candidates sim p cycle)) with
    | Some b when sim.flits.(b) < sim.cfg.capacity && link_free sim b ->
      acquire sim p b ~drain:(fun () ->
          match p.route with
          | [] -> p.injected <- 1
          | route ->
            let h = last route in
            sim.flits.(h) <- sim.flits.(h) - 1)
    | _ -> ()

(* Consume one flit at the destination. *)
let try_deliver sim p =
  match p.route with
  | [] -> ()
  | route ->
    let h = last route in
    if
      Buf.head_node (Net.buffer sim.net h) = p.dst
      && sim.flits.(h) > 0
      && not sim.delivery_used.(p.dst)
    then begin
      sim.delivery_used.(p.dst) <- true;
      sim.flits.(h) <- sim.flits.(h) - 1;
      p.delivered <- p.delivered + 1;
      sim.events <- sim.events + 1
    end

(* Body flits flow forward, head side first so a flit moves at most once
   per cycle. *)
let try_body sim p =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  let hops = List.rev (pairs p.route) in
  List.iter
    (fun (cur, next) ->
      if
        sim.flits.(cur) > 0
        && sim.flits.(next) < sim.cfg.capacity
        && link_free sim next
      then begin
        sim.flits.(cur) <- sim.flits.(cur) - 1;
        sim.flits.(next) <- sim.flits.(next) + 1;
        use_link sim next;
        sim.events <- sim.events + 1
      end)
    hops

(* Feed the worm from the source. *)
let try_inject_body sim p cycle =
  match p.route with
  | first :: _ ->
    if
      p.injected > 0 && p.injected < p.length
      && cycle >= p.inject_at
      && sim.flits.(first) < sim.cfg.capacity
      && link_free sim first
    then begin
      sim.flits.(first) <- sim.flits.(first) + 1;
      use_link sim first;
      p.injected <- p.injected + 1;
      sim.events <- sim.events + 1
    end
  | [] -> ()

(* Release drained tail buffers once the source has nothing more to send,
   and the whole route once the packet is consumed. *)
let release sim p cycle =
  if (not p.finished) && p.delivered >= p.length then begin
    List.iter
      (fun b ->
        sim.owner.(b) <- -1;
        assert (sim.flits.(b) = 0))
      p.route;
    p.route <- [];
    p.finished <- true;
    p.finish_cycle <- cycle
  end
  else if p.injected >= p.length then begin
    let rec drop = function
      | b :: (_ :: _ as rest) when sim.flits.(b) = 0 ->
        sim.owner.(b) <- -1;
        drop rest
      | route -> route
    in
    p.route <- drop p.route
  end

let make_sim ?(config = default_config) net algo packets =
  {
    net;
    algo;
    cfg = config;
    rng = Prng.create config.seed;
    owner = Array.make (Net.num_buffers net) (-1);
    flits = Array.make (Net.num_buffers net) 0;
    packets;
    events = 0;
    used_links = Hashtbl.create 64;
    delivery_used = Array.make (Net.num_nodes net) false;
  }

let live p = (not p.finished) && not p.frozen

(* The packet wait-for graph at stall time: which packet each blocked
   packet is waiting on (via the owners of its candidate buffers). *)
let wait_for_edges sim cycle =
  let edges = ref [] in
  Array.iter
    (fun p ->
      if live p then begin
        List.iter
          (fun b ->
            let o = sim.owner.(b) in
            if o >= 0 && o <> p.id && not (List.mem (p.id, o) !edges) then
              edges := (p.id, o) :: !edges)
          (header_candidates sim p cycle)
      end)
    sim.packets;
  List.rev !edges

let step sim cycle =
  sim.events <- 0;
  Hashtbl.reset sim.used_links;
  Array.fill sim.delivery_used 0 (Array.length sim.delivery_used) false;
  (* rotate processing order for fairness *)
  let n = Array.length sim.packets in
  let offset = if n = 0 then 0 else cycle mod n in
  for k = 0 to n - 1 do
    let p = sim.packets.((k + offset) mod n) in
    if live p then begin
      try_deliver sim p;
      try_head sim p cycle;
      try_body sim p;
      try_inject_body sim p cycle;
      release sim p cycle
    end
  done;
  sim.events

let drive sim =
  Drive.run
    {
      Drive.name = "wormhole";
      max_cycles = sim.cfg.max_cycles;
      step = step sim;
      tally =
        (fun cycle ->
          {
            Drive.unfinished = Array.exists live sim.packets;
            pending =
              Array.exists
                (fun p -> live p && p.route = [] && p.inject_at > cycle)
                sim.packets;
            in_flight =
              Array.fold_left
                (fun acc p -> if live p && p.route <> [] then acc + 1 else acc)
                0 sim.packets;
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
            sim.packets);
      wait_for = Some (wait_for_edges sim);
    }

let packets_of_traffic traffic =
  Array.of_list
    (List.mapi
       (fun id (t : Traffic.packet) ->
         {
           id;
           src = t.Traffic.src;
           dst = t.Traffic.dst;
           length = max 1 t.Traffic.length;
           inject_at = t.Traffic.inject_at;
           script =
             (match t.Traffic.mode with
             | Traffic.Adaptive -> []
             | Traffic.Scripted s -> s);
           route = [];
           injected = 0;
           delivered = 0;
           finished = false;
           finish_cycle = 0;
           frozen = false;
         })
       traffic)

let run ?config net algo traffic =
  drive (make_sim ?config net algo (packets_of_traffic traffic))

let run_preloaded ?(config = default_config) net algo preloads =
  let packets =
    Array.of_list
      (List.mapi
         (fun id (p : Drive.preload) ->
           (match p.chain with
           | [] -> invalid_arg "Wormhole_sim.run_preloaded: empty chain"
           | _ -> ());
           {
             id;
             src = Buf.source_node (Net.buffer net (List.hd p.chain));
             dst = p.dest;
             length = config.capacity * List.length p.chain;
             inject_at = 0;
             script = [];
             route = p.chain;
             injected = config.capacity * List.length p.chain;
             delivered = 0;
             finished = false;
             finish_cycle = 0;
             frozen = p.frozen;
           })
         preloads)
  in
  let sim = make_sim ~config net algo packets in
  (* seat the packets: every chained buffer filled with the owner's flits *)
  Array.iter
    (fun p ->
      List.iter
        (fun b ->
          if sim.owner.(b) <> -1 then
            invalid_arg "Wormhole_sim.run_preloaded: duplicate buffer";
          sim.owner.(b) <- p.id;
          sim.flits.(b) <- config.capacity)
        p.route)
    packets;
  drive sim
