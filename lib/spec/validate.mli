(** Validation: from a parsed spec to a resolved one, or the first error
    as (byte offset, message).

    Checks declaration well-formedness, the topology shorthand, the
    channel table (the channels a topology clause generates first, then
    the declared ones, in order) and every rule's names and ranges.
    Whole-network checks (wait ⊆ route, adjacency, delivery) are
    {!Elaborate}'s. *)

type channel = {
  cname : string;
  csrc : int;
  cdst : int;
  cvc : int;
  cpos : int;  (** byte offset of the channel's name, or of the topology clause *)
}

type t
(** A resolved spec.  Its rules stay in the parser's flat table, with
    names resolved to channel indices. *)

val check : Table.t -> (t, int * string) result
(** Resolves the table's rules in place, so a table is checked once. *)

val name : t -> string
val switching : t -> Dfr_network.Net.switching
val waiting : t -> Dfr_routing.Algo.wait_discipline
val num_nodes : t -> int
val topology : t -> Dfr_topology.Topology.t option
val vcs : t -> int

val channels : t -> channel array
(** Declaration order, which is buffer creation order. *)

val size_pos : t -> int
(** Byte offset of the [nodes] or [topology] clause, where whole-spec
    errors are reported. *)

val table : t -> Table.t
(** The resolved rule table, for {!Elaborate} and {!Diff}. *)

(** {2 Reference view}

    The rules decoded one record each, positions stripped, for code that
    checks the table readers against a plain reading. *)

type kind = Route | Wait
type sel = At of int | At_all | In of int  (** channel index *) | Inj of int
type outs = Explicit of int list  (** channel indices *) | Empty | Min of int option
type rule = { kind : kind; sel : sel; dst : int option  (** [None]: [to *] *); outs : outs }

val rules : t -> rule list
(** Declaration order. *)
