(** The destinations whose routing an edit of a spec can change.

    Destination [d]'s route and wait tables depend only on the network
    skeleton (name, switching, waiting, nodes, vcs, topology and the
    channel triples) and on the sequence of rules that apply to [d]
    (those [to d] or [to *], in declaration order), compared by kind,
    selector and outputs.  [diff] marks [d] dirty when that sequence
    differs, and answers [Incompatible] when the skeletons differ. *)

type frontier = { dirty : int list;  (** ascending *) total : int  (** = nodes *) }

type t =
  | Incompatible of string  (** the skeletons differ (the part named); only a cold check is sound *)
  | Frontier of frontier

val diff : Validate.t -> Validate.t -> t
(** [diff base edit], in one pass over each side's rules and, per
    destination, its own rules and the [to *] ones. *)
