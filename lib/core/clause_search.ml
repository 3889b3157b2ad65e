type lit = { var : int; value : int }

type 'c hooks = {
  probe : unit -> ('c option, string) result;
  clause : 'c -> lit list * lit list;
  moves : 'c -> lit list Seq.t;
  assign : int -> int -> bool;
}

type stats = {
  rebuilds : int;
  decisions : int;
  conflicts : int;
  learned : int;
  pruned : int;
}

type outcome = Found | Exhausted | Gave_up of string

(* Learned-clause store.  [sat] counts, per clause, the literals that do
   not hold under the current assignment, kept up to date on every
   change, so "some clause holds entirely" is a scan for a zero.  A probe
   runs only when no learned clause holds entirely, and a conflict's
   clause holds entirely, so every clause learned is new. *)
type store = {
  mutable arr : lit array array;
  mutable pref : lit array array;  (* per clause: the subset branched first *)
  mutable sat : int array;
  mutable n : int;
  occ : (int * int) list array;  (* var -> (clause, literal value) *)
  activity : int array;  (* per var: clauses mentioning it *)
}

let sorted lits = Array.of_list (List.sort_uniq compare lits)

let learn t ~value c pref =
  Array.iter (fun l -> t.activity.(l.var) <- t.activity.(l.var) + 1) c;
  if t.n = Array.length t.arr then begin
    let grow a fill =
      let a' = Array.make (2 * t.n) fill in
      Array.blit a 0 a' 0 t.n;
      a'
    in
    t.arr <- grow t.arr [||];
    t.pref <- grow t.pref [||];
    t.sat <- grow t.sat 0
  end;
  t.arr.(t.n) <- c;
  t.pref.(t.n) <- pref;
  t.sat.(t.n) <-
    Array.fold_left (fun acc l -> if value.(l.var) <> l.value then acc + 1 else acc) 0 c;
  Array.iter (fun l -> t.occ.(l.var) <- (t.n, l.value) :: t.occ.(l.var)) c;
  t.n <- t.n + 1

let on_change t v ~old_val ~new_val =
  List.iter
    (fun (i, lval) ->
      if lval = old_val then t.sat.(i) <- t.sat.(i) + 1
      else if lval = new_val then t.sat.(i) <- t.sat.(i) - 1)
    t.occ.(v)

(* first clause that holds entirely, as (preferred subset, clause) *)
let violated t =
  let rec go i =
    if i >= t.n then None
    else if t.sat.(i) = 0 then Some (t.pref.(i), t.arr.(i))
    else go (i + 1)
  in
  go 0

exception Stop of string

let run ~budget ~arity value hooks =
  let n = Array.length value in
  let decided = Array.make n false in
  let t =
    {
      arr = Array.make 16 [||];
      pref = Array.make 16 [||];
      sat = Array.make 16 0;
      n = 0;
      occ = Array.make n [];
      activity = Array.make n 0;
    }
  in
  let rebuilds = ref 0 and decisions = ref 0 and conflicts = ref 0 in
  let learned = ref 0 and pruned = ref 0 in
  let uncertain = ref None in
  let max_decisions = 256 * budget in
  let decide () =
    if !decisions >= max_decisions then
      raise (Stop (Printf.sprintf "decision limit of %d exhausted" max_decisions));
    incr decisions
  in
  let set v x =
    let old = value.(v) in
    value.(v) <- x;
    if hooks.assign v x then begin
      on_change t v ~old_val:old ~new_val:x;
      true
    end
    else begin
      value.(v) <- old;
      false
    end
  in
  (* undo applied changes, given as (var, old value), most recent first *)
  let undo = List.iter (fun (v, old) -> ignore (set v old : bool)) in
  let by_activity lits =
    List.stable_sort
      (fun a b ->
        match compare t.activity.(b.var) t.activity.(a.var) with
        | 0 -> compare a b
        | c -> c)
      lits
  in
  (* true when a solution was reached (the assignment is left at it) *)
  let rec solve () =
    match violated t with
    | Some (pref, clause) ->
      incr pruned;
      branch Seq.empty pref clause
    | None -> (
      if !rebuilds >= budget then
        raise
          (Stop (Printf.sprintf "search budget of %d BWG rebuilds exhausted" budget));
      incr rebuilds;
      match hooks.probe () with
      | Error reason ->
        uncertain := Some reason;
        false
      | Ok None -> true
      | Ok (Some c) -> (
        incr conflicts;
        match hooks.clause c with
        | [], _ -> false
        | lits, pref ->
          let clause = sorted lits and pref = sorted pref in
          learn t ~value clause pref;
          incr learned;
          branch (hooks.moves c) pref clause))
  and branch moves pref clause =
    Seq.exists try_move moves
    ||
    let in_pref = Array.to_list pref in
    let rest = List.filter (fun l -> not (List.mem l in_pref)) (Array.to_list clause) in
    List.exists try_literal (by_activity in_pref @ by_activity rest)
  and try_move m =
    m <> []
    && List.for_all (fun l -> (not decided.(l.var)) && value.(l.var) <> l.value) m
    && begin
         decide ();
         (* the changes made, most recent first; [None] once one is refused *)
         let rec apply applied = function
           | [] -> Some applied
           | l :: rest ->
             let old = value.(l.var) in
             if set l.var l.value then apply ((l.var, old) :: applied) rest
             else (undo applied; None)
         in
         match apply [] m with
         | None -> false
         | Some applied -> solve () || (undo applied; false)
       end
  and try_literal { var; value = lval } =
    (not decided.(var))
    && value.(var) = lval
    && begin
         decided.(var) <- true;
         let ok =
           List.exists
             (fun alt ->
               alt <> lval
               && begin
                    decide ();
                    set var alt && (solve () || (undo [ (var, lval) ]; false))
                  end)
             (List.init (arity var) Fun.id)
         in
         if not ok then decided.(var) <- false;
         ok
       end
  in
  let outcome =
    match solve () with
    | true -> Found
    | false -> (
      match !uncertain with Some reason -> Gave_up reason | None -> Exhausted)
    | exception Stop msg -> Gave_up msg
  in
  ( outcome,
    {
      rebuilds = !rebuilds;
      decisions = !decisions;
      conflicts = !conflicts;
      learned = !learned;
      pruned = !pruned;
    } )
