(* The one representation the .dfr front end passes from stage to stage:
   the source text, the names it spells (each distinct identifier once,
   as a small int), the header declarations, and the channel and rule
   declarations as rows of a flat int array.  No stage builds a tree.

   Positions are byte offsets into the source; they become line:column
   only when an error is reported ({!Lexer.line_col}).  The parser appends
   rows; {!Validate} resolves the name ids of a rule row to channel
   indices in place, so after validation the rule rows are what
   {!Elaborate} and {!Diff} read.  Library-internal: the layout below is
   not part of any public interface. *)

(* channel rows *)
let chan_width = 6
let c_name = 0 (* name id *)
let c_name_off = 1
let c_src = 2
let c_dst = 3
let c_vc = 4
let c_off = 5 (* the declaration *)

(* rule rows *)
let rule_width = 6
let r_flags = 0 (* kind lor (sel lsl 1) lor (outs lsl 3) *)
let r_off = 1 (* the declaration *)
let r_sel_arg = 2 (* a node; for sel_in a name id, a channel index once validated; 0 for sel_all *)
let r_dst = 3 (* a node, or -1 for [to *] *)
let r_outs_arg = 4 (* outs_list: first entry in [outs]; outs_min: the vc, or -1 for all *)
let r_outs_len = 5 (* outs_list: entry count; otherwise 0 *)

(* kinds *)
let route = 0
let wait = 1

(* selectors *)
let sel_at = 0
let sel_all = 1
let sel_in = 2
let sel_inj = 3

(* output forms *)
let outs_list = 0
let outs_none = 1
let outs_min = 2

type t = {
  src : string;
  names : Lexer.names;
  head_val : int array;  (* per header keyword: the value (a name id for network) *)
  head_off : int array;  (* per header keyword: the declaration, -1 when absent *)
  mutable topology : string;  (* the raw topology clause *)
  mutable dup : int;  (* the first repeated header declaration, -1 when none *)
  mutable dup_kw : int;
  mutable first_decl : int;  (* -1 when the spec declares nothing *)
  mutable chans : int array;
  mutable num_chans : int;
  mutable rules : int array;
  mutable num_rules : int;
  mutable outs : int array;  (* explicit outputs: a name id each, a channel index once validated *)
  mutable num_outs : int;
}

let create src =
  {
    src;
    names = Lexer.create_names ();
    head_val = Array.make Lexer.num_headers 0;
    head_off = Array.make Lexer.num_headers (-1);
    topology = "";
    dup = -1;
    dup_kw = 0;
    first_decl = -1;
    chans = Array.make (16 * chan_width) 0;
    num_chans = 0;
    (* sized for one declaration per 24 bytes, so a reprint rarely grows *)
    rules = Array.make (max 64 (String.length src / 24) * rule_width) 0;
    num_rules = 0;
    outs = Array.make (max 64 (String.length src / 24)) 0;
    num_outs = 0;
  }

(* [a] with room for [need] entries, doubled when full *)
let reserve a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Rows are appended whole, one call each. *)
let push_chan t ~name ~name_off ~src ~dst ~vc ~off =
  let a = reserve t.chans ((t.num_chans + 1) * chan_width) in
  let b = t.num_chans * chan_width in
  a.(b + c_name) <- name;
  a.(b + c_name_off) <- name_off;
  a.(b + c_src) <- src;
  a.(b + c_dst) <- dst;
  a.(b + c_vc) <- vc;
  a.(b + c_off) <- off;
  t.chans <- a;
  t.num_chans <- t.num_chans + 1

let push_rule t ~kind ~off ~sel ~sel_arg ~dst ~outs ~outs_arg ~outs_len =
  let a = reserve t.rules ((t.num_rules + 1) * rule_width) in
  let b = t.num_rules * rule_width in
  a.(b + r_flags) <- kind lor (sel lsl 1) lor (outs lsl 3);
  a.(b + r_off) <- off;
  a.(b + r_sel_arg) <- sel_arg;
  a.(b + r_dst) <- dst;
  a.(b + r_outs_arg) <- outs_arg;
  a.(b + r_outs_len) <- outs_len;
  t.rules <- a;
  t.num_rules <- t.num_rules + 1

let push_out t id =
  t.outs <- reserve t.outs (t.num_outs + 1);
  t.outs.(t.num_outs) <- id;
  t.num_outs <- t.num_outs + 1

let chan t i f = t.chans.((i * chan_width) + f)
let rule t i f = t.rules.((i * rule_width) + f)
let set_rule t i f v = t.rules.((i * rule_width) + f) <- v
let kind t i = rule t i r_flags land 1
let sel t i = (rule t i r_flags lsr 1) land 3
let outs t i = rule t i r_flags lsr 3
let spelling t id = t.names.Lexer.spell.(id)

(* Offsets inside a rule are not stored: the rule is lexed again from
   its start when an error needs one.  Its selector is its token 1, its
   destination token 4, its outputs token 6 and output [k] token 6 + k. *)
let token t i n = Lexer.token_start t.src t.names (rule t i r_off) n
let sel_off t i = token t i 1
let dst_off t i = token t i 4
let outs_off t i = token t i 6
let out_off t i k = token t i (6 + k)
