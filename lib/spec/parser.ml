(* Recursive-descent parser for .dfr specifications, writing the flat
   rows of a {!Table.t} as it goes: no tree is built.

   One declaration per line.  The grammar (see DESIGN.md for the full
   reference):

     spec     := { decl NEWLINE }
     decl     := "network" IDENT
               | "switching" ("wormhole" | "saf" | "vct")
               | "waiting"  ("specific" | "any")
               | "nodes" INT
               | "topology" REST-OF-LINE        (shared CLI shorthand)
               | "vcs" INT
               | "channel" IDENT ":" INT "->" INT [ "vc" INT ]
               | ("route" | "wait") selector "to" dest ":" outputs
     selector := "at" (INT | "*") | "in" IDENT | "inj" INT
     dest     := INT | "*"
     outputs  := "none" | "minimal" [ "vc" INT ] | IDENT+

   A repeated header declaration (network, switching, waiting, nodes,
   topology, vcs) is not a parse error: the first one is recorded and
   {!Validate} reports it, after every parse error. *)

open Lexer

let expect_int lx ~what =
  match lx.tok with
  | Int ->
    let n = lx.value in
    next lx;
    n
  | _ -> error lx.start "expected %s (an integer), found %s" what (describe lx)

let expect_ident lx ~what =
  match lx.tok with
  | Ident ->
    let id = lx.value in
    next lx;
    id
  | _ -> error lx.start "expected %s, found %s" what (describe lx)

let expect_tok lx want ~what =
  if lx.tok = want then next lx else error lx.start "expected %s, found %s" what (describe lx)

let is_kw lx kw = match lx.tok with Ident -> lx.value = kw | _ -> false

(* [vc N] suffix: N, or [default] *)
let opt_vc lx ~default =
  if is_kw lx kw_vc then begin
    next lx;
    expect_int lx ~what:"a virtual-channel index after 'vc'"
  end
  else default

let parse_rule t lx kind off =
  let sel = ref Table.sel_all and sel_arg = ref 0 in
  if is_kw lx kw_at then begin
    next lx;
    match lx.tok with
    | Star -> next lx
    | Int ->
      sel := Table.sel_at;
      sel_arg := lx.value;
      next lx
    | _ -> error lx.start "expected a node number or '*' after 'at', found %s" (describe lx)
  end
  else if is_kw lx kw_in then begin
    next lx;
    sel := Table.sel_in;
    sel_arg := expect_ident lx ~what:"a channel name after 'in'"
  end
  else if is_kw lx kw_inj then begin
    next lx;
    sel := Table.sel_inj;
    sel_arg := expect_int lx ~what:"a node number after 'inj'"
  end
  else
    error lx.start "expected a selector ('at N', 'at *', 'in CHANNEL' or 'inj N'), found %s"
      (describe lx);
  if is_kw lx kw_to then next lx
  else error lx.start "expected 'to' after the selector, found %s" (describe lx);
  let dst =
    match lx.tok with
    | Star ->
      next lx;
      -1
    | Int ->
      let d = lx.value in
      next lx;
      d
    | _ -> error lx.start "expected a destination node or '*', found %s" (describe lx)
  in
  expect_tok lx Colon ~what:"':' before the output list";
  let outs = ref Table.outs_list and outs_arg = ref t.Table.num_outs in
  if is_kw lx kw_none then begin
    next lx;
    outs := Table.outs_none;
    outs_arg := 0
  end
  else if is_kw lx kw_minimal then begin
    next lx;
    outs := Table.outs_min;
    outs_arg := opt_vc lx ~default:(-1)
  end
  else if lx.tok = Ident then
    (* every identifier up to the end of the declaration is a channel
       name, keywords included *)
    while lx.tok = Ident do
      Table.push_out t lx.value;
      next lx
    done
  else
    error lx.start "expected output buffers ('none', 'minimal' or channel names), found %s"
      (describe lx);
  let outs_len = if !outs = Table.outs_list then t.Table.num_outs - !outs_arg else 0 in
  Table.push_rule t ~kind ~off ~sel:!sel ~sel_arg:!sel_arg ~dst ~outs:!outs ~outs_arg:!outs_arg
    ~outs_len

(* a header declaration's value; only its first occurrence is kept *)
let header (t : Table.t) kw pos v =
  if t.head_off.(kw) < 0 then begin
    t.head_off.(kw) <- pos;
    t.head_val.(kw) <- v
  end
  else if t.dup < 0 then begin
    t.dup <- pos;
    t.dup_kw <- kw
  end

let parse_decl (t : Table.t) lx pos kw =
  if kw = kw_network then header t kw pos (expect_ident lx ~what:"a network name")
  else if kw = kw_switching then begin
    let kpos = lx.start in
    let m = expect_ident lx ~what:"a switching mode (wormhole, saf or vct)" in
    if m = kw_wormhole || m = kw_saf || m = kw_store_and_forward || m = kw_vct
       || m = kw_virtual_cut_through
    then header t kw pos m
    else
      error kpos "unknown switching mode %S (expected wormhole, saf or vct)"
        (Table.spelling t m)
  end
  else if kw = kw_waiting then begin
    let kpos = lx.start in
    let w = expect_ident lx ~what:"a waiting discipline (specific or any)" in
    if w = kw_specific || w = kw_any then header t kw pos w
    else
      error kpos "unknown waiting discipline %S (expected specific or any)"
        (Table.spelling t w)
  end
  else if kw = kw_nodes then header t kw pos (expect_int lx ~what:"the number of nodes")
  else if kw = kw_vcs then header t kw pos (expect_int lx ~what:"the number of virtual channels")
  else if kw = kw_topology then begin
    (* the current token is the clause's first; recapture the raw line
       from there and let the shorthand be re-lexed separately *)
    let rpos = lx.start in
    let raw = rest_of_line lx in
    next lx;
    if raw = "" then error rpos "expected a topology shorthand, e.g. 'mesh 4 4' or 'mesh:4x4'";
    if t.head_off.(kw) < 0 then t.topology <- raw;
    header t kw pos 0
  end
  else if kw = kw_channel then begin
    let name_off = lx.start in
    let name = expect_ident lx ~what:"a channel name" in
    expect_tok lx Colon ~what:"':' after the channel name";
    let src = expect_int lx ~what:"the source node" in
    expect_tok lx Arrow ~what:"'->' between the channel endpoints";
    let dst = expect_int lx ~what:"the destination node" in
    let vc = opt_vc lx ~default:0 in
    Table.push_chan t ~name ~name_off ~src ~dst ~vc ~off:pos
  end
  else if kw = kw_route then parse_rule t lx Table.route pos
  else if kw = kw_wait then parse_rule t lx Table.wait pos
  else
    error pos
      "unknown declaration %S (expected network, switching, waiting, nodes, topology, vcs, \
       channel, route or wait)"
      (Table.spelling t kw)

let parse_string src =
  let t = Table.create src in
  let lx = Lexer.create src t.Table.names in
  let rec loop () =
    match lx.tok with
    | Newline ->
      next lx;
      loop ()
    | Eof -> ()
    | Ident ->
      let pos = lx.start and kw = lx.value in
      if t.first_decl < 0 then t.first_decl <- pos;
      next lx;
      parse_decl t lx pos kw;
      (match lx.tok with
      | Newline -> next lx
      | Eof -> ()
      | _ -> error lx.start "trailing %s at end of declaration" (describe lx));
      loop ()
    | _ -> error lx.start "expected a declaration keyword, found %s" (describe lx)
  in
  match
    next lx;
    loop ()
  with
  | () -> Ok t
  | exception Error (pos, msg) -> Error (pos, msg)
