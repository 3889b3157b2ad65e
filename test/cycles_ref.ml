(* The order reference for [Cycles.fold_rows]: Johnson's algorithm as the
   library ran it before its flat engine, kept here unchanged apart from
   qualified names and its flag, which a branch cut by the length cap
   makes [false] as the engine's does.  It recurses, holds B-sets as
   lists deduplicated with [List.mem], rebuilds a vertex list per cycle,
   and hands [f] those lists.  The engine must give the same cycles in
   the same order, with the same [Stop] behaviour and flag, at every
   cap. *)

open Dfr_graph

exception Done

(* Johnson's algorithm restricted to one SCC at a time, over an *implicit*
   edge relation: [row v] returns the successors of [v] as a strictly
   ascending array.  The enumeration never materializes the full graph —
   it Tarjan-scans the implicit relation once (holding only the rows on
   the DFS path), then builds a compact sub-CSR per cycle-capable SCC and
   runs the per-root rounds inside it.  Vertices in trivial SCCs are
   skipped entirely, which is what makes the scan affordable on
   10^4-10^5-vertex BWGs whose cyclic cores are tiny.

   Output order is identical to running the classic whole-graph algorithm
   on the frozen CSR: roots are visited in ascending global order, and a
   sub-CSR row restricted to the root's SCC enumerates the same allowed
   successors in the same ascending order as the full row did under the
   [allowed] mask.

   Each cycle goes to [f] the moment the search closes it, so a caller
   that only needs the first cycle with some property stops the search
   there instead of paying for the rest of the cap. *)
let fold_rows ?(limits = Cycles.default_limits) ~n ~row f init =
  (* --- pass 1: SCCs of the implicit graph (iterative Tarjan) --- *)
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let comp_count = ref 0 in
  let next_index = ref 0 in
  let stack = ref [] in
  (* frames: vertex, its row, cursor *)
  let frames = ref [] in
  let push_frame v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    frames := (v, row v, ref 0) :: !frames
  in
  let pop_component v =
    let c = !comp_count in
    incr comp_count;
    let rec pop () =
      match !stack with
      | [] -> ()
      | w :: tl ->
        stack := tl;
        on_stack.(w) <- false;
        comp.(w) <- c;
        if w <> v then pop ()
    in
    pop ()
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push_frame root;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, succs, cursor) :: rest ->
          if !cursor < Array.length succs then begin
            let w = succs.(!cursor) in
            incr cursor;
            if index.(w) < 0 then push_frame w
            else if on_stack.(w) then
              lowlink.(v) <- min lowlink.(v) index.(w)
          end
          else begin
            frames := rest;
            if lowlink.(v) = index.(v) then pop_component v
            else
              match rest with
              | (p, _, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
              | [] -> ()
          end
      done
    end
  done;
  (* --- pass 2: which components can host a cycle? --- *)
  let size = Array.make !comp_count 0 in
  for v = 0 to n - 1 do
    size.(comp.(v)) <- size.(comp.(v)) + 1
  done;
  let has_self_loop v =
    let r = row v in
    let lo = ref 0 and hi = ref (Array.length r) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let w = r.(mid) in
      if w = v then found := true else if w < v then lo := mid + 1 else hi := mid
    done;
    !found
  in
  let live = Array.make n false in
  for v = 0 to n - 1 do
    live.(v) <- size.(comp.(v)) >= 2 || has_self_loop v
  done;
  (* --- pass 3: Johnson rounds, roots ascending, inside per-SCC sub-CSRs --- *)
  let acc = ref init in
  let found = ref 0 in
  let capped = ref false and cut = ref false in
  (* memoized per-component machinery: (members, local csr, scratch) *)
  let sub = Array.make !comp_count None in
  let subgraph c =
    match sub.(c) with
    | Some s -> s
    | None ->
      let members = ref [] in
      for v = n - 1 downto 0 do
        if comp.(v) = c then members := v :: !members
      done;
      let members = Array.of_list !members in
      let m = Array.length members in
      let local = Array.make n (-1) in
      Array.iteri (fun i v -> local.(v) <- i) members;
      let degree = Array.make m 0 in
      let rows = Array.map row members in
      Array.iteri
        (fun i r ->
          Array.iter (fun w -> if comp.(w) = c then degree.(i) <- degree.(i) + 1) r)
        rows;
      let offsets = Array.make (m + 1) 0 in
      for i = 0 to m - 1 do
        offsets.(i + 1) <- offsets.(i) + degree.(i)
      done;
      let targets = Array.make offsets.(m) 0 in
      let next = Array.copy offsets in
      Array.iteri
        (fun i r ->
          Array.iter
            (fun w ->
              if comp.(w) = c then begin
                targets.(next.(i)) <- local.(w);
                next.(i) <- next.(i) + 1
              end)
            r)
        rows;
      (* members ascend, rows ascend, and local ids are order-preserving,
         so every sub-CSR row is strictly ascending as Csr.make requires *)
      let g = Csr.make ~n:m ~offsets ~targets in
      let s = (members, local, g) in
      sub.(c) <- Some s;
      s
  in
  let blocked = ref [||] and block_map = ref [||] and allowed = ref [||] in
  let round members g lv =
    let m = Csr.num_vertices g in
    if Array.length !blocked < m then begin
      blocked := Array.make m false;
      block_map := Array.make m [];
      allowed := Array.make m false
    end;
    let blocked = !blocked and block_map = !block_map and allowed = !allowed in
    let scc = Scc.compute_bounded g ~least:lv in
    let c = scc.Scc.component.(lv) in
    for v = 0 to m - 1 do
      allowed.(v) <- scc.Scc.component.(v) = c
    done;
    let live_root = Csr.fold_succ (fun w acc -> acc || allowed.(w)) g lv false in
    if live_root then begin
      for v = 0 to m - 1 do
        blocked.(v) <- false;
        block_map.(v) <- []
      done;
      let cstack = ref [] in
      let depth = ref 0 in
      let rec unblock v =
        if blocked.(v) then begin
          blocked.(v) <- false;
          let ws = block_map.(v) in
          block_map.(v) <- [];
          List.iter unblock ws
        end
      in
      let emit () =
        incr found;
        (match f (List.rev_map (fun v -> members.(v)) !cstack) !acc with
        | Cycles.Continue a -> acc := a
        | Cycles.Stop a ->
          acc := a;
          raise Done);
        if !found >= limits.Cycles.max_cycles then begin
          capped := true;
          raise Done
        end
      in
      let rec circuit v =
        let closed = ref false in
        blocked.(v) <- true;
        cstack := v :: !cstack;
        incr depth;
        Csr.iter_succ
          (fun w ->
            if allowed.(w) then
              if w = lv then begin
                if !depth <= limits.Cycles.max_length then emit () else cut := true;
                closed := true
              end
              else if not blocked.(w) then
                if !depth < limits.Cycles.max_length then begin
                  if circuit w then closed := true
                end
                else cut := true)
          g v;
        if !closed then unblock v
        else
          Csr.iter_succ
            (fun w ->
              if allowed.(w) && not (List.mem v block_map.(w)) then
                block_map.(w) <- v :: block_map.(w))
            g v;
        cstack := List.tl !cstack;
        decr depth;
        !closed
      in
      ignore (circuit lv)
    end
  in
  (try
     for least = 0 to n - 1 do
       if live.(least) then begin
         let members, local, g = subgraph comp.(least) in
         round members g local.(least)
       end
     done
   with Done -> ());
  (!acc, not (!capped || !cut))


let stepping stop_at k = if k = stop_at then Cycles.Stop k else Cycles.Continue k

(* Whether [fold], an engine over path views, sees what the reference sees
   over the same graph ([row v] ascending) when each stops after
   [stop_at] cycles (never when 0): the same cycles in the same order and
   the same flag.  The reference's cycles are stored as arrays, and the
   engine's compared with them as they stream. *)
let agrees ~limits ~stop_at ~n ~row
    (fold : (Cycles.path -> int -> int Cycles.step) -> int -> int * bool) =
  let want = ref [] in
  let count, flag =
    fold_rows ~limits ~n ~row
      (fun c k ->
        want := Array.of_list c :: !want;
        stepping stop_at (k + 1))
      0
  in
  let want = Array.of_list (List.rev !want) in
  let same = ref true in
  let got, got_flag =
    fold
      (fun p k ->
        if k >= Array.length want || Cycles.path_to_array p <> want.(k) then
          same := false;
        stepping stop_at (k + 1))
      0
  in
  !same && got = count && got_flag = flag
