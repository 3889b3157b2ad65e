(* Hand-rolled lexer for .dfr specifications, with what every later stage
   shares: the error exception (a byte offset and a message), offset to
   line:column conversion, and the interned names.

   The current token lives in the lexer's mutable fields — its kind, its
   byte offset and its value (an integer literal's value, or an
   identifier's interned name id) — so lexing allocates nothing but each
   distinct name's first spelling.  Keywords are interned names with
   fixed ids ({!keywords}).

   Tokens are produced on demand so the parser can switch to raw
   line-capture for the [topology] clause (whose shorthand grammar —
   [mesh:4x4] or [mesh 4 4] — is shared with the dfcheck CLI and lexes
   poorly as ordinary tokens). *)

(* ---------------- errors and positions ---------------- *)

exception Error of int * string
(** A front-end error: the byte offset it is reported at, and its text. *)

let error off fmt = Printf.ksprintf (fun msg -> raise (Error (off, msg))) fmt

(* 1-based line and column of byte offset [off]: lines end at '\n', and
   the column counts bytes from the line's start *)
let line_col src off =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min off (String.length src) - 1 do
    if String.unsafe_get src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, off - !bol + 1)

(* ---------------- names ---------------- *)

(* Keywords are interned first, so a keyword test is an int compare.  The
   first six are the header declarations, whose ids index [head_val] and
   [head_off]. *)
let keywords =
  [|
    "network"; "switching"; "waiting"; "nodes"; "topology"; "vcs"; "channel"; "route";
    "wait"; "at"; "in"; "inj"; "to"; "none"; "minimal"; "vc"; "wormhole"; "saf";
    "store-and-forward"; "vct"; "virtual-cut-through"; "specific"; "any";
  |]

let kw_network = 0
let kw_switching = 1
let kw_waiting = 2
let kw_nodes = 3
let kw_topology = 4
let kw_vcs = 5
let kw_channel = 6
let kw_route = 7
let kw_wait = 8
let kw_at = 9
let kw_in = 10
let kw_inj = 11
let kw_to = 12
let kw_none = 13
let kw_minimal = 14
let kw_vc = 15
let kw_wormhole = 16
let kw_saf = 17
let kw_store_and_forward = 18
let kw_vct = 19
let kw_virtual_cut_through = 20
let kw_specific = 21
let kw_any = 22
let num_headers = 6

(* Open addressing over [slots] (a power of two; 0 empty, else id + 1),
   hashing the bytes in place so a name already held costs no string. *)
type names = {
  mutable spell : string array;
  mutable count : int;
  mutable slots : int array;
}

(* the hash of [s.[start..stop)]; the lexer computes the same as it
   scans an identifier *)
let hash_step h c = (h * 31) + Char.code c
let hash_final h = h lxor (h lsr 21)

let hash_sub s start stop =
  let h = ref 0 in
  for i = start to stop - 1 do
    h := hash_step !h (String.unsafe_get s i)
  done;
  hash_final !h

(* the slot holding [s.[start..stop)], whose hash is [h], or the empty
   slot where it would go *)
let find_slot names h s start stop =
  let slots = names.slots and spell = names.spell in
  let mask = Array.length slots - 1 and len = stop - start in
  let i = ref (h land mask) and found = ref false in
  while not !found do
    let v = slots.(!i) in
    if v = 0 then found := true
    else begin
      let n = spell.(v - 1) in
      let k = ref 0 in
      if String.length n = len then
        while !k < len && String.unsafe_get n !k = String.unsafe_get s (start + !k) do
          incr k
        done;
      if String.length n = len && !k = len then found := true else i := (!i + 1) land mask
    end
  done;
  !i

(* the id of [s.[start..stop)], whose hash is [h], entering it if new;
   the slots double before they pass 3/4 full *)
let rec intern_hashed names h s start stop =
  let i = find_slot names h s start stop in
  let v = names.slots.(i) in
  if v <> 0 then v - 1
  else if 4 * (names.count + 1) > 3 * Array.length names.slots then begin
    let slots = Array.make (2 * Array.length names.slots) 0 in
    let mask = Array.length slots - 1 in
    for id = 0 to names.count - 1 do
      let n = names.spell.(id) in
      let j = ref (hash_sub n 0 (String.length n) land mask) in
      while slots.(!j) <> 0 do
        j := (!j + 1) land mask
      done;
      slots.(!j) <- id + 1
    done;
    names.slots <- slots;
    intern_hashed names h s start stop
  end
  else begin
    let id = names.count in
    if id = Array.length names.spell then begin
      let spell = Array.make (2 * id) "" in
      Array.blit names.spell 0 spell 0 id;
      names.spell <- spell
    end;
    names.spell.(id) <-
      (if start = 0 && stop = String.length s then s else String.sub s start (stop - start));
    names.count <- id + 1;
    names.slots.(i) <- id + 1;
    id
  end

let intern names s start stop = intern_hashed names (hash_sub s start stop) s start stop

let create_names () =
  let names = { spell = Array.make 64 ""; count = 0; slots = Array.make 128 0 } in
  Array.iter (fun k -> ignore (intern names k 0 (String.length k))) keywords;
  names

(* ---------------- tokens ---------------- *)

type token = Ident | Int | Colon | Arrow | Star | Newline | Eof

type t = {
  src : string;
  names : names;
  mutable pos : int;  (* the first byte not yet lexed *)
  mutable tok : token;
  mutable start : int;  (* the current token's offset *)
  mutable value : int;  (* Int: its value; Ident: its name id *)
}

let create src names = { src; names; pos = 0; tok = Eof; start = 0; value = 0 }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let describe t =
  match t.tok with
  | Ident -> Printf.sprintf "identifier %S" t.names.spell.(t.value)
  | Int -> Printf.sprintf "integer %d" t.value
  | Colon -> "':'"
  | Arrow -> "'->'"
  | Star -> "'*'"
  | Newline -> "end of line"
  | Eof -> "end of file"

(* Advance to the next token.  Spaces, tabs, carriage returns and [#]
   comments are skipped; newlines are tokens. *)
let next t =
  let s = t.src in
  let len = String.length s in
  let i = ref t.pos and blank = ref true in
  while !blank && !i < len do
    match String.unsafe_get s !i with
    | ' ' | '\t' | '\r' -> incr i
    | '#' ->
      while !i < len && String.unsafe_get s !i <> '\n' do
        incr i
      done
    | _ -> blank := false
  done;
  let i = !i in
  t.start <- i;
  if i >= len then begin
    t.tok <- Eof;
    t.pos <- i
  end
  else
    match String.unsafe_get s i with
    | '\n' ->
      t.tok <- Newline;
      t.pos <- i + 1
    | ':' ->
      t.tok <- Colon;
      t.pos <- i + 1
    | '*' ->
      t.tok <- Star;
      t.pos <- i + 1
    | '-' when i + 1 < len && String.unsafe_get s (i + 1) = '>' ->
      t.tok <- Arrow;
      t.pos <- i + 2
    | c when is_digit c ->
      let j = ref i and v = ref 0 and over = ref false in
      while !j < len && is_digit (String.unsafe_get s !j) do
        let d = Char.code (String.unsafe_get s !j) - 48 in
        if !v > (max_int - d) / 10 then over := true else v := (!v * 10) + d;
        incr j
      done;
      if !j < len && is_ident_start (String.unsafe_get s !j) then
        error i "identifier may not start with a digit: %S" (String.sub s i (!j - i + 1));
      if !over then error i "integer literal out of range";
      t.tok <- Int;
      t.value <- !v;
      t.pos <- !j
    | c when is_ident_start c ->
      (* '-' belongs to the identifier unless it opens an '->' arrow; the
         name's hash is taken on the way *)
      let j = ref (i + 1) and h = ref (hash_step 0 c) in
      while
        !j < len
        &&
        let c = String.unsafe_get s !j in
        is_ident_char c || (c = '-' && not (!j + 1 < len && String.unsafe_get s (!j + 1) = '>'))
      do
        h := hash_step !h (String.unsafe_get s !j);
        incr j
      done;
      t.tok <- Ident;
      t.value <- intern_hashed t.names (hash_final !h) s i !j;
      t.pos <- !j
    | c -> error i "unexpected character %C" c

(* Raw text of the rest of the line from the current token's start
   (comment stripped, trimmed) — for the [topology] clause, which
   re-lexes its shorthand itself.  Leaves the lexer at the terminating
   newline without consuming it; the caller must advance afterwards. *)
let rest_of_line t =
  let start = t.start in
  let stop =
    match String.index_from_opt t.src start '\n' with
    | Some i -> i
    | None -> String.length t.src
  in
  t.pos <- stop;
  let rec uncommented i = if i < stop && t.src.[i] <> '#' then uncommented (i + 1) else i in
  let stop = uncommented start in
  String.trim (String.sub t.src start (stop - start))

(* the offset of the [n]th token (0: the first) from [off], lexed again *)
let token_start src names off n =
  let t = { (create src names) with pos = off } in
  for _ = 0 to n do
    next t
  done;
  t.start
