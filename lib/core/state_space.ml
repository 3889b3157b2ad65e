open Dfr_network
open Dfr_routing
module Obs = Dfr_obs.Obs
module Csr = Dfr_graph.Csr

(* Rows over a slice's positions: row [i] is
   [items.(first.(i)) .. items.(first.(i + 1) - 1)]. *)
type rows = { first : int array; items : int array }

(* One destination's reachable states, stored compactly and flat: [bufs]
   is the ascending array of buffers some [dest]-bound packet can
   occupy, and the rows, parallel to it, carry the per-state routing
   relation.  A full-mesh or dragonfly destination touches O(nodes) of
   the network's B buffers, so this is what keeps the table at O(states)
   instead of O(B * N) — the difference between megabytes and gigabytes
   at 10^5 buffers.  [view_moves] is the same relation as a k-vertex CSR
   over the slice's own positions (vertex i is [bufs.(i)]), the
   destination's one move graph: the output rows themselves whenever
   they are all ascending.  [view_stuck] and [view_waitless] are the
   facts the BFS records as it routes. *)
type dest_view = {
  view_bufs : int array;
  view_outs : rows;
  view_wts : rows;
  view_hint : rows option;
  view_moves : Csr.t;
  view_stuck : int array;
  view_waitless : int array;
}

type t = {
  net : Net.t;
  algo : Algo.t;
  num_buffers : int;
  num_nodes : int;
  slices : dest_view array; (* per dest *)
}

let net t = t.net
let algo t = t.algo
let num_buffers t = t.num_buffers
let num_nodes t = t.num_nodes

(* position of [buf] in [s.view_bufs], or -1 *)
let slice_find s buf =
  let bufs = s.view_bufs in
  let lo = ref 0 and hi = ref (Array.length bufs) in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let b = bufs.(mid) in
    if b = buf then found := mid else if b < buf then lo := mid + 1 else hi := mid
  done;
  !found

let row { first; items } i = List.init (first.(i + 1) - first.(i)) (fun p -> items.(first.(i) + p))
let index t ~buf ~dest = slice_find t.slices.(dest) buf
let is_reachable t ~buf ~dest = index t ~buf ~dest >= 0
let arrived t ~buf ~dest = Buf.head_node (Net.buffer t.net buf) = dest
let dest_view t ~dest = t.slices.(dest)

(* Rows appended in the order the BFS routes states: row [j] (the
   state at queue position [j]) is [ent.(at.(j)) .. ent.(at.(j + 1) - 1)].
   [ent] grows by doubling and keeps its size across destinations. *)
type acc = { mutable at : int array; mutable ent : int array }

let new_acc () = { at = [||]; ent = [||] }

(* [x] at [ent.(n)]; returns [n + 1] *)
let push a n x =
  if n >= Array.length a.ent then begin
    let bigger = Array.make (max 64 (2 * n)) 0 in
    Array.blit a.ent 0 bigger 0 n;
    a.ent <- bigger
  end;
  a.ent.(n) <- x;
  n + 1

let rec push_list a n = function [] -> n | x :: rest -> push_list a (push a n x) rest

(* The rows of queue positions [order.(0)], ..., [order.(k - 1)], entries
   mapped through [through] when given *)
let gather a ~order ~k ~through =
  let first = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    let j = order.(i) in
    first.(i + 1) <- first.(i) + a.at.(j + 1) - a.at.(j)
  done;
  let items = Array.make first.(k) 0 in
  for i = 0 to k - 1 do
    let j = order.(i) in
    let shift = first.(i) - a.at.(j) in
    match through with
    | None -> Array.blit a.ent a.at.(j) items first.(i) (first.(i + 1) - first.(i))
    | Some map ->
      for p = a.at.(j) to a.at.(j + 1) - 1 do
        items.(shift + p) <- map.(a.ent.(p))
      done
  done;
  { first; items }

(* The move graph over a slice's positions from its output rows (local
   ids, route order, duplicate-free): the rows themselves when every one
   ascends, else a copy with each row sorted.  Every output of a
   reachable state is itself reachable, and positions are a monotone
   renumbering of buffers, so a row sorted by position is sorted by
   buffer. *)
let moves_of { first; items } =
  let k = Array.length first - 1 in
  let sorted = ref true in
  for i = 0 to k - 1 do
    for p = first.(i) + 1 to first.(i + 1) - 1 do
      if items.(p - 1) >= items.(p) then sorted := false
    done
  done;
  let targets =
    if !sorted then items
    else begin
      let c = Array.copy items in
      for i = 0 to k - 1 do
        (* insertion sort: a row is a state's few outputs *)
        for p = first.(i) + 1 to first.(i + 1) - 1 do
          let x = c.(p) in
          let q = ref (p - 1) in
          while !q >= first.(i) && c.(!q) > x do
            c.(!q + 1) <- c.(!q);
            decr q
          done;
          c.(!q + 1) <- x
        done
      done;
      c
    end
  in
  Csr.make ~n:k ~offsets:first ~targets

let sorted_array = function
  | [] -> [||]
  | l ->
    let a = Array.of_list l in
    Array.sort Int.compare a;
    a

(* One domain's BFS scratch, reused across destinations and builds and
   grown to the largest network seen.  The BFS for a destination only
   ever revisits its own states, so size-B arrays that are clean between
   destinations are all the working memory it needs: [local.(buf)] is -1
   for a buffer not yet seen, its queue position while the BFS runs and
   its slice position once it is done; [queue] holds the seen buffers in
   visit order and [order] the queue position of each slice position.
   [outs], [wts] and [red] collect the routed states' transit outputs,
   waits and hint ([red] only for an algorithm with a hint) as rows by
   queue position.  Only [local] must be clean between destinations;
   everything else is written before it is read. *)
type bfs = {
  mutable local : int array;
  mutable queue : int array;
  mutable order : int array;
  outs : acc;
  wts : acc;
  red : acc;
}

let bfs =
  Dfr_util.Per_domain.make (fun () ->
      {
        local = [||];
        queue = [||];
        order = [||];
        outs = new_acc ();
        wts = new_acc ();
        red = new_acc ();
      })

let fit_bfs sc ~num_buffers ~hint =
  if Array.length sc.local < num_buffers then begin
    sc.local <- Array.make num_buffers (-1);
    sc.queue <- Array.make num_buffers 0;
    sc.order <- Array.make num_buffers 0;
    sc.outs.at <- Array.make (num_buffers + 1) 0;
    sc.wts.at <- Array.make (num_buffers + 1) 0
  end;
  if hint && Array.length sc.red.at < Array.length sc.local + 1 then
    sc.red.at <- Array.make (Array.length sc.local + 1) 0

let empty_moves = Csr.of_edges 0 []

(* One destination's slice: BFS from the injection buffers, over the
   domain's scratch [sc].  Shared with [with_updated_dests], which re-runs
   it for just the dirty destinations — a slice is a pure function of
   (net, algo, dest), so a rebuilt slice is identical to what a cold
   build produces.  Every buffer the BFS saw gets its [local] entry back
   when it ends, also when a routing function raises.

   Each state is routed once when the waiting rule is the route itself
   (the same closure).  Every state the BFS routes is checked against the
   routing contract on the raw route list, waits and hint it reads
   anyway, so only reachable states are validated — the states the BWG
   and Theorems 1–3 read; [Algo.state_problems] builds the messages only
   for a state [Algo.state_ok] refuses.  The destination's problems come
   back beside the slice, as (buffer, problems) pairs; a slice with
   problems is never used, so it gets no move graph. *)
let build_slice net algo ~num_nodes ~hint sc dest =
  let local = sc.local and queue = sc.queue in
  let outs = sc.outs and wts = sc.wts and red = sc.red in
  let once = algo.Algo.waits == algo.Algo.route in
  let tail = ref 0 in
  let clean () =
    for j = 0 to !tail - 1 do
      local.(queue.(j)) <- -1
    done
  in
  Fun.protect ~finally:clean @@ fun () ->
  let problems = ref [] and stuck = ref [] and waitless = ref [] in
  let visit buf =
    if local.(buf) < 0 then begin
      local.(buf) <- !tail;
      queue.(!tail) <- buf;
      incr tail
    end
  in
  (* the transit outputs of [route] onto [outs] from [n], each visited *)
  let rec push_outs n = function
    | [] -> n
    | o :: rest ->
      if Buf.is_transit (Net.buffer net o) then begin
        visit o;
        push_outs (push outs n o) rest
      end
      else push_outs n rest
  in
  for src = 0 to num_nodes - 1 do
    if src <> dest then visit (Buf.id (Net.injection net src))
  done;
  let n_outs = ref 0 and n_wts = ref 0 and n_red = ref 0 in
  outs.at.(0) <- 0;
  wts.at.(0) <- 0;
  if hint then red.at.(0) <- 0;
  let head = ref 0 in
  while !head < !tail do
    let j = !head in
    let buf = queue.(j) in
    incr head;
    let b = Net.buffer net buf in
    if Buf.head_node b <> dest then begin
      let route = algo.Algo.route net b ~dest in
      let waits = if once then route else algo.Algo.waits net b ~dest in
      let reduced_waits =
        match algo.Algo.reduced_waits with
        | None -> None
        | Some rw -> Some (rw net b ~dest)
      in
      if not (Algo.state_ok net b ~dest ~outputs:route ~waits ~reduced_waits) then
        problems :=
          (buf, Algo.state_problems net b ~dest ~outputs:route ~waits ~reduced_waits)
          :: !problems;
      let before = !n_outs in
      n_outs := push_outs before route;
      if !n_outs = before then stuck := buf :: !stuck;
      if List.is_empty waits then waitless := buf :: !waitless;
      n_wts := push_list wts !n_wts waits;
      match reduced_waits with
      | Some rw -> n_red := push_list red !n_red rw
      | None -> ()
    end;
    outs.at.(j + 1) <- !n_outs;
    wts.at.(j + 1) <- !n_wts;
    if hint then red.at.(j + 1) <- !n_red
  done;
  let k = !tail in
  let bufs = Array.sub queue 0 k in
  (* a merge sort: [Array.sort]'s heap sort is the slower one here *)
  Array.stable_sort Int.compare bufs;
  let order = sc.order in
  Array.iteri
    (fun i b ->
      order.(i) <- local.(b);
      local.(b) <- i)
    bufs;
  let out_rows = gather outs ~order ~k ~through:(Some local) in
  let slice =
    {
      view_bufs = bufs;
      view_outs = out_rows;
      view_wts = gather wts ~order ~k ~through:None;
      view_hint = (if hint then Some (gather red ~order ~k ~through:None) else None);
      view_moves = (if !problems = [] then moves_of out_rows else empty_moves);
      view_stuck = sorted_array !stuck;
      view_waitless = sorted_array !waitless;
    }
  in
  (slice, !problems)

(* [build_slice] for each listed destination in turn, on this domain's
   scratch, filling [into] and [problems] *)
let build_slices net algo ~num_buffers ~num_nodes ~into ~problems dests =
  let hint = algo.Algo.reduced_waits <> None in
  Dfr_util.Per_domain.use bfs @@ fun sc ->
  fit_bfs sc ~num_buffers ~hint;
  List.iter
    (fun dest ->
      let slice, ps = build_slice net algo ~num_nodes ~hint sc dest in
      into.(dest) <- slice;
      problems.(dest) <- ps)
    dests

(* One rejection for the whole build, raised after every destination's
   BFS: the states sort by (buffer, destination), so the problems keep
   [Algo.validate]'s order and the message is the same whatever chunking
   [--domains] chose. *)
let refuse_malformed ~num_nodes problems =
  let keyed = ref [] in
  Array.iteri
    (fun dest ps ->
      List.iter (fun (buf, p) -> keyed := ((buf * num_nodes) + dest, p) :: !keyed) ps)
    problems;
  if !keyed <> [] then
    invalid_arg
      ("State_space.build: "
      ^ String.concat "; "
          (List.concat_map snd
             (List.sort (fun ((a : int), _) (b, _) -> compare a b) !keyed)))

let num_states t =
  Array.fold_left (fun acc s -> acc + Array.length s.view_bufs) 0 t.slices

let build ?(domains = 1) net algo =
  Obs.span "space.build" @@ fun () ->
  let num_buffers = Net.num_buffers net in
  let num_nodes = Net.num_nodes net in
  (* Destinations partition across domains: each worker owns a contiguous
     chunk and writes only its own slices, so the filled array is
     identical whatever the chunking.  The states counter is a sum of
     per-slice sizes, hence domain-count-invariant. *)
  let no_rows = { first = [| 0 |]; items = [||] } in
  let slices =
    Array.make num_nodes
      {
        view_bufs = [||];
        view_outs = no_rows;
        view_wts = no_rows;
        view_hint = None;
        view_moves = empty_moves;
        view_stuck = [||];
        view_waitless = [||];
      }
  in
  let problems = Array.make num_nodes [] in
  let n_dom = max 1 (min domains num_nodes) in
  Dfr_util.Domain_pool.parallel ~domains:n_dom (fun k ->
      let start, stop = Dfr_util.Domain_pool.chunk ~n:num_nodes ~domains:n_dom k in
      build_slices net algo ~num_buffers ~num_nodes ~into:slices ~problems
        (List.init (stop - start) (fun i -> start + i)));
  refuse_malformed ~num_nodes problems;
  let t = { net; algo; num_buffers; num_nodes; slices } in
  Obs.count "space.states" (num_states t);
  t

(* The (buf ascending, dest ascending) order every downstream state list
   is reported in, by one counting pass: bucket the states by buffer,
   filling the buckets destination by destination, so each bucket comes
   out sorted. *)
let iter_reachable t f =
  let nb = t.num_buffers in
  let next = Array.make (nb + 1) 0 in
  Array.iter
    (fun s -> Array.iter (fun buf -> next.(buf + 1) <- next.(buf + 1) + 1) s.view_bufs)
    t.slices;
  for b = 1 to nb do
    next.(b) <- next.(b) + next.(b - 1)
  done;
  let dests = Array.make next.(nb) 0 in
  Array.iteri
    (fun dest s ->
      Array.iter
        (fun buf ->
          dests.(next.(buf)) <- dest;
          next.(buf) <- next.(buf) + 1)
        s.view_bufs)
    t.slices;
  (* [next.(buf)] is now where buffer [buf + 1]'s bucket starts *)
  let i = ref 0 in
  for buf = 0 to nb - 1 do
    while !i < next.(buf) do
      f ~buf ~dest:dests.(!i);
      incr i
    done
  done

(* Rebuild only the named destinations' tables under a new algorithm,
   sharing everything else.  A destination's slice (move graph included) is a
   pure function of (net, algo restricted to that dest), so as long as the
   caller's dirty set covers every destination whose applicable rules
   changed — Diff.diff computes exactly that set for spec edits — the
   result is indistinguishable from a cold build of [algo], rejection
   included: the rebuilt destinations' reachable states are checked by
   the same BFS, and the clean ones were checked when they were built. *)
let with_updated_dests t algo ~dests =
  Obs.span "space.update" @@ fun () ->
  let dests = List.sort_uniq compare dests in
  List.iter
    (fun d ->
      if d < 0 || d >= t.num_nodes then
        invalid_arg "State_space.with_updated_dests: destination out of range")
    dests;
  let hint = algo.Algo.reduced_waits <> None in
  (* a hint cannot be introduced incrementally: the clean destinations'
     reduced tables were never computed *)
  if hint && Array.exists (fun s -> s.view_hint = None) t.slices then
    invalid_arg
      "State_space.with_updated_dests: cannot introduce a reduced-waits hint";
  (* a hint the new algorithm no longer carries must not survive in the
     shared slices either, or their hint rows would diverge from a cold
     build of [algo] *)
  let slices =
    if hint then Array.copy t.slices
    else
      Array.map
        (fun s -> if s.view_hint = None then s else { s with view_hint = None })
        t.slices
  in
  if dests <> [] then Obs.count "space.dest.rebuilds" (List.length dests);
  let problems = Array.make t.num_nodes [] in
  build_slices t.net algo ~num_buffers:t.num_buffers ~num_nodes:t.num_nodes
    ~into:slices ~problems dests;
  refuse_malformed ~num_nodes:t.num_nodes problems;
  { t with algo; slices }

(* The states a record names, in [iter_reachable] order: few (usually
   none), so sorting them costs nothing *)
let recorded t pick =
  let nn = t.num_nodes in
  let keys = ref [] in
  for dest = 0 to nn - 1 do
    Array.iter (fun buf -> keys := ((buf * nn) + dest) :: !keys) (pick t.slices.(dest))
  done;
  List.map (fun k -> (k / nn, k mod nn)) (List.sort Int.compare !keys)

let stuck_states t = recorded t (fun s -> s.view_stuck)
let waitless_states t = recorded t (fun s -> s.view_waitless)
