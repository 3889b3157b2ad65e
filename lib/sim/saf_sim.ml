open Dfr_network
open Dfr_util

type config = { max_cycles : int; seed : int }

let default_config = { max_cycles = 100_000; seed = 1 }

type pkt = {
  id : int;
  src : int;
  dst : int;
  inject_at : int;
  mutable script : int list;
  mutable at : int option; (* current buffer *)
  mutable injected : bool;
  mutable finished : bool;
  mutable finish_cycle : int;
  frozen : bool;
}

let run_generic ?(config = default_config) net algo packets =
  let owner = Array.make (Net.num_buffers net) (-1) in
  let rng = Prng.create config.seed in
  Array.iter
    (fun p ->
      match p.at with
      | Some b ->
        if owner.(b) <> -1 then invalid_arg "Saf_sim: duplicate preload buffer";
        owner.(b) <- p.id
      | None -> ())
    packets;
  let n = Array.length packets in
  let events = ref 0 in
  let transit_route = Drive.transit_route net algo in
  let select = function
    | [] -> None
    | [ b ] -> Some b
    | bs -> Some (Prng.pick rng bs)
  in
  let move p cycle =
    match p.at with
    | None ->
      if (not p.injected) && cycle >= p.inject_at then begin
        let candidates =
          match p.script with
          | b :: _ -> [ b ]
          | [] -> transit_route (Net.injection net p.src) ~dest:p.dst
        in
        match select (List.filter (fun b -> owner.(b) = -1) candidates) with
        | Some b ->
          owner.(b) <- p.id;
          p.at <- Some b;
          p.injected <- true;
          (match p.script with _ :: rest -> p.script <- rest | [] -> ());
          incr events
        | None -> ()
      end
    | Some b ->
      let head = Buf.head_node (Net.buffer net b) in
      if head = p.dst then begin
        (* consumption *)
        owner.(b) <- -1;
        p.at <- None;
        p.finished <- true;
        p.finish_cycle <- cycle;
        incr events
      end
      else begin
        let candidates =
          match p.script with
          | nb :: _ -> [ nb ]
          | [] -> transit_route (Net.buffer net b) ~dest:p.dst
        in
        match select (List.filter (fun nb -> owner.(nb) = -1) candidates) with
        | Some nb ->
          owner.(nb) <- p.id;
          owner.(b) <- -1;
          p.at <- Some nb;
          (match p.script with _ :: rest -> p.script <- rest | [] -> ());
          incr events
        | None -> ()
      end
  in
  let live p = (not p.finished) && not p.frozen in
  Drive.run
    {
      Drive.name = "saf";
      max_cycles = config.max_cycles;
      step =
        (fun cycle ->
          events := 0;
          let offset = if n = 0 then 0 else cycle mod n in
          for k = 0 to n - 1 do
            let p = packets.((k + offset) mod n) in
            if live p then move p cycle
          done;
          !events);
      tally =
        (fun cycle ->
          {
            Drive.unfinished = Array.exists live packets;
            pending =
              Array.exists
                (fun p -> live p && p.at = None && p.inject_at > cycle)
                packets;
            (* frozen fillers count: they sit in the network *)
            in_flight =
              Array.fold_left
                (fun acc p -> if p.at <> None then acc + 1 else acc)
                0 packets;
          });
      progress =
        (fun () ->
          Array.map
            (fun p ->
              {
                Drive.inject_at = p.inject_at;
                injected = p.injected;
                flits = (if p.finished then 1 else 0);
                finished = (if p.finished then Some p.finish_cycle else None);
              })
            packets);
      wait_for = None;
    }

let run ?config net algo traffic =
  let packets =
    Array.of_list
      (List.mapi
         (fun id (t : Traffic.packet) ->
           {
             id;
             src = t.Traffic.src;
             dst = t.Traffic.dst;
             inject_at = t.Traffic.inject_at;
             script =
               (match t.Traffic.mode with
               | Traffic.Adaptive -> []
               | Traffic.Scripted s -> s);
             at = None;
             injected = false;
             finished = false;
             finish_cycle = 0;
             frozen = false;
           })
         traffic)
  in
  run_generic ?config net algo packets

let run_preloaded ?config net algo preloads =
  let packets =
    Array.of_list
      (List.mapi
         (fun id (p : Drive.preload) ->
           let buffer =
             match p.chain with
             | [ b ] -> b
             | _ ->
               invalid_arg
                 "Saf_sim.run_preloaded: a store-and-forward packet occupies \
                  exactly one buffer"
           in
           {
             id;
             src = Buf.source_node (Net.buffer net buffer);
             dst = p.dest;
             inject_at = 0;
             script = [];
             at = Some buffer;
             injected = true;
             finished = false;
             finish_cycle = 0;
             frozen = p.frozen;
           })
         preloads)
  in
  run_generic ?config net algo packets
