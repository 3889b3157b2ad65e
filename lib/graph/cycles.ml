type limits = { max_cycles : int; max_length : int }

let default_limits = { max_cycles = 10_000; max_length = 64 }

type 'a step = Continue of 'a | Stop of 'a

(* The search's current path in global ids: [verts.(0)] is the root and
   [len] the number of vertices on it.  The engine writes [verts] as it
   descends and sets [len] when it closes a cycle; callers only read. *)
type path = { verts : int array; mutable len : int }

let path_to_array p = Array.sub p.verts 0 p.len

let path_to_list p =
  let rec go i acc = if i < 0 then acc else go (i - 1) (p.verts.(i) :: acc) in
  go (p.len - 1) []

exception Done

(* A growable int stack: the rows on Tarjan's DFS path, then the targets
   of the core's sub-CSR. *)
type ints = { mutable items : int array; mutable top : int }

let push b x =
  if b.top = Array.length b.items then begin
    let a = Array.make (max 16 (2 * b.top)) 0 in
    Array.blit b.items 0 a 0 b.top;
    b.items <- a
  end;
  Array.unsafe_set b.items b.top x;
  b.top <- b.top + 1

(* Sorts [a.(lo) .. a.(hi - 1)] ascending, drops repeats, and returns the
   new end of the segment. *)
let sort_unique a lo hi =
  if hi - lo > 32 then begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
  let k = ref lo in
  for i = lo to hi - 1 do
    if i = lo || a.(i) <> a.(!k - 1) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  !k

(* Johnson's algorithm restricted to one SCC at a time, over an *implicit*
   edge relation: [iter_succ v f] calls [f] on each successor of [v].  The
   enumeration never materializes the full graph.

   Pass 1 is an iterative Tarjan scan that reads every row once, copying it
   onto a stack that holds only the rows on the DFS path, and notes
   self-loops as it reads.  A trivial component (one vertex, no self-loop)
   is dropped the moment it pops.  Pass 2 reads the rows of the
   cycle-capable components (the core) once more and packs them into one
   flat sub-CSR, each component's vertices numbered 0.. in ascending
   global order and each row restricted to its component and sorted.
   Pass 3 runs the per-root rounds inside it, over flat int arrays: frames
   (vertex, cursor, closed flag), an unblock stack, and B-sets as linked
   slots in one pool.  The scratch of a round is sized to the largest
   component and reused from root to root.

   Output order is that of the classic whole-graph algorithm on the frozen
   CSR: roots ascend globally, a component's rows enumerate the allowed
   successors in the same ascending order the full row did, and the
   per-root SCC is the same set.  Each cycle goes to [f] the moment the
   search closes it, as a view of the search's path. *)
let fold_rows ?(limits = default_limits) ~n ~iter_succ f init =
  (* --- pass 1: SCCs of the implicit graph (iterative Tarjan) --- *)
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  (* comp.(v): -1 while unassigned (on the stack once indexed), the core
     component's number, or [trivial] *)
  let trivial = max_int in
  let comp = Array.make n (-1) in
  let self_loop = Bytes.make n '\000' in
  let stack = Array.make n 0 and sp = ref 0 in
  (* DFS frames: vertex, cursor into [rows] and the end of its row *)
  let fv = Array.make n 0 and fcur = Array.make n 0 and fend = Array.make n 0 in
  let fp = ref 0 in
  let rows = { items = [||]; top = 0 } in
  let next_index = ref 0 in
  let core_size = { items = [||]; top = 0 } in
  let reading = ref 0 in
  let read w =
    if w = !reading then Bytes.unsafe_set self_loop w '\001' else push rows w
  in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    fv.(!fp) <- v;
    fcur.(!fp) <- rows.top;
    reading := v;
    iter_succ v read;
    fend.(!fp) <- rows.top;
    incr fp
  in
  let pop_component v =
    let start = ref !sp in
    while stack.(!start - 1) <> v do
      decr start
    done;
    let size = !sp - !start + 1 in
    let c =
      if size >= 2 || Bytes.get self_loop v <> '\000' then begin
        push core_size size;
        core_size.top - 1
      end
      else trivial
    in
    for i = !start - 1 to !sp - 1 do
      comp.(stack.(i)) <- c
    done;
    sp := !start - 1
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while !fp > 0 do
        let k = !fp - 1 in
        let v = fv.(k) in
        if fcur.(k) < fend.(k) then begin
          let w = rows.items.(fcur.(k)) in
          fcur.(k) <- fcur.(k) + 1;
          if index.(w) < 0 then enter w
          else if comp.(w) < 0 && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          (* row exhausted: retire the frame and drop its row *)
          decr fp;
          rows.top <- (if k > 0 then fend.(k - 1) else 0);
          if k > 0 then begin
            let p = fv.(k - 1) in
            if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then pop_component v
        end
      done
    end
  done;
  (* --- pass 2: one sub-CSR over the core --- *)
  let ncore = core_size.top in
  let base = Array.make (ncore + 1) 0 in
  for c = 0 to ncore - 1 do
    base.(c + 1) <- base.(c) + core_size.items.(c)
  done;
  let m = base.(ncore) in
  (* [local] reuses [index]: a core vertex's number inside its component;
     [members] lists each component's vertices ascending, at [base] *)
  let local = index in
  let fill = Array.make ncore 0 in
  let members = Array.make m 0 in
  for v = 0 to n - 1 do
    let c = comp.(v) in
    if c <> trivial then begin
      local.(v) <- fill.(c);
      members.(base.(c) + fill.(c)) <- v;
      fill.(c) <- fill.(c) + 1
    end
  done;
  let offsets = Array.make (m + 1) 0 in
  let targets = { items = [||]; top = 0 } in
  let max_size = ref 0 and max_edges = ref 0 in
  for c = 0 to ncore - 1 do
    for p = base.(c) to base.(c + 1) - 1 do
      offsets.(p) <- targets.top;
      iter_succ members.(p) (fun w -> if comp.(w) = c then push targets local.(w));
      targets.top <- sort_unique targets.items offsets.(p) targets.top
    done;
    offsets.(base.(c + 1)) <- targets.top;
    max_size := max !max_size (base.(c + 1) - base.(c));
    max_edges := max !max_edges (targets.top - offsets.(base.(c)))
  done;
  let targets = targets.items in
  (* --- pass 3: Johnson rounds, roots ascending --- *)
  let s = !max_size in
  (* the root's SCC among the vertices >= root: Tarjan from the root *)
  let tindex = Array.make s (-1) and tlow = Array.make s 0 in
  let ton = Bytes.make s '\000' in
  let tstack = Array.make s 0 and tv = Array.make s 0 and tcur = Array.make s 0 in
  let visited = Array.make s 0 in
  (* the SCC's members, which are also every vertex a round flags *)
  let allowed = Bytes.make s '\000' in
  let scc = Array.make s 0 and scc_size = ref 0 in
  (* the circuit: frames, blocked flags, the path view *)
  let jv = Array.make s 0 and jcur = Array.make s 0 in
  let jclosed = Bytes.make s '\000' in
  let blocked = Bytes.make s '\000' in
  let path = { verts = Array.make s 0; len = 0 } in
  (* B-sets: [bhead.(w)] is the first slot of w's list, -1 when empty.  A
     list holds each v at most once, and v -> w is then an edge, so the
     live slots never outnumber the component's edges; an unblock puts
     the slots it empties back on [free]. *)
  let bhead = Array.make s (-1) in
  let bval = Array.make !max_edges 0 and bnext = Array.make !max_edges 0 in
  let pool_top = ref 0 and free = ref (-1) in
  let ustack = Array.make s 0 in
  let acc = ref init in
  let found = ref 0 in
  let capped = ref false and cut = ref false in
  let flag a i = Bytes.unsafe_get a i <> '\000' in
  let set a i b = Bytes.unsafe_set a i (if b then '\001' else '\000') in
  let round c lv =
    let b = base.(c) in
    let row_start v = offsets.(b + v) and row_stop v = offsets.(b + v + 1) in
    (* pass 3a: flag the SCC of [lv] in the subgraph induced by [lv..] *)
    let next = ref 0 and tsp = ref 0 and tfp = ref 0 in
    let tenter v =
      tindex.(v) <- !next;
      tlow.(v) <- !next;
      visited.(!next) <- v;
      incr next;
      tstack.(!tsp) <- v;
      incr tsp;
      set ton v true;
      tv.(!tfp) <- v;
      tcur.(!tfp) <- row_start v;
      incr tfp
    in
    tenter lv;
    while !tfp > 0 do
      let k = !tfp - 1 in
      let v = tv.(k) in
      if tcur.(k) < row_stop v then begin
        let w = targets.(tcur.(k)) in
        tcur.(k) <- tcur.(k) + 1;
        if w >= lv then
          if tindex.(w) < 0 then tenter w
          else if flag ton w && tindex.(w) < tlow.(v) then tlow.(v) <- tindex.(w)
      end
      else begin
        decr tfp;
        if k > 0 then begin
          let p = tv.(k - 1) in
          if tlow.(v) < tlow.(p) then tlow.(p) <- tlow.(v)
        end;
        if tlow.(v) = tindex.(v) then begin
          let root_scc = v = lv in
          let more = ref true in
          while !more do
            decr tsp;
            let w = tstack.(!tsp) in
            set ton w false;
            if root_scc then begin
              set allowed w true;
              scc.(!scc_size) <- w;
              incr scc_size
            end;
            if w = v then more := false
          done
        end
      end
    done;
    for i = 0 to !next - 1 do
      tindex.(visited.(i)) <- -1
    done;
    let live_root = ref false in
    for i = row_start lv to row_stop lv - 1 do
      if flag allowed targets.(i) then live_root := true
    done;
    if !live_root then begin
      let unblock u =
        if flag blocked u then begin
          set blocked u false;
          ustack.(0) <- u;
          let usp = ref 1 in
          while !usp > 0 do
            decr usp;
            let x = ustack.(!usp) in
            let slot = ref bhead.(x) in
            bhead.(x) <- -1;
            while !slot >= 0 do
              let y = bval.(!slot) and after = bnext.(!slot) in
              bnext.(!slot) <- !free;
              free := !slot;
              if flag blocked y then begin
                set blocked y false;
                ustack.(!usp) <- y;
                incr usp
              end;
              slot := after
            done
          done
        end
      in
      (* v joins B(w) for every allowed successor w not yet holding it *)
      let block_on_successors v =
        for i = row_start v to row_stop v - 1 do
          let w = targets.(i) in
          if flag allowed w then begin
            let slot = ref bhead.(w) in
            while !slot >= 0 && bval.(!slot) <> v do
              slot := bnext.(!slot)
            done;
            if !slot < 0 then begin
              let fresh =
                if !free >= 0 then begin
                  let f = !free in
                  free := bnext.(f);
                  f
                end
                else begin
                  let f = !pool_top in
                  incr pool_top;
                  f
                end
              in
              bval.(fresh) <- v;
              bnext.(fresh) <- bhead.(w);
              bhead.(w) <- fresh
            end
          end
        done
      in
      let jsp = ref 0 in
      let descend v =
        set blocked v true;
        jv.(!jsp) <- v;
        jcur.(!jsp) <- row_start v;
        set jclosed !jsp false;
        path.verts.(!jsp) <- members.(b + v);
        incr jsp
      in
      let emit () =
        incr found;
        path.len <- !jsp;
        (match f path !acc with
        | Continue a -> acc := a
        | Stop a ->
          acc := a;
          raise Done);
        if !found >= limits.max_cycles then begin
          capped := true;
          raise Done
        end
      in
      descend lv;
      while !jsp > 0 do
        let k = !jsp - 1 in
        let v = jv.(k) in
        let stop = row_stop v in
        let pushed = ref false in
        while (not !pushed) && jcur.(k) < stop do
          let w = targets.(jcur.(k)) in
          jcur.(k) <- jcur.(k) + 1;
          if flag allowed w then
            if w = lv then begin
              if !jsp <= limits.max_length then emit () else cut := true;
              set jclosed k true
            end
            else if not (flag blocked w) then
              if !jsp < limits.max_length then begin
                descend w;
                pushed := true
              end
              else
                (* the length cap cuts this branch: [v] may stay blocked
                   though a longer path through [w] closes, pruning
                   shorter cycles later *)
                cut := true
        done;
        if not !pushed then begin
          (* successors exhausted: retire the frame *)
          let closed = flag jclosed k in
          if closed then unblock v else block_on_successors v;
          decr jsp;
          if closed && k > 0 then set jclosed (k - 1) true
        end
      done
    end;
    (* leave the scratch clean for the next root *)
    for i = 0 to !scc_size - 1 do
      let w = scc.(i) in
      set allowed w false;
      set blocked w false;
      bhead.(w) <- -1
    done;
    scc_size := 0;
    pool_top := 0;
    free := -1
  in
  (try
     for least = 0 to n - 1 do
       let c = comp.(least) in
       if c <> trivial then round c local.(least)
     done
   with Done -> ());
  (!acc, not (!capped || !cut))

let enumerate_checked_rows ?limits ~n ~row () =
  let cs, exhaustive =
    fold_rows ?limits ~n
      ~iter_succ:(fun v f -> Array.iter f (row v))
      (fun p cs -> Continue (path_to_list p :: cs))
      []
  in
  (List.rev cs, exhaustive)

let csr_row g u =
  let start, stop = Csr.row g u in
  Array.init (stop - start) (fun i -> Csr.target g (start + i))

let enumerate_checked ?limits g =
  let g = Digraph.freeze g in
  enumerate_checked_rows ?limits ~n:(Csr.num_vertices g) ~row:(csr_row g) ()

let enumerate ?limits g = fst (enumerate_checked ?limits g)
