(** Elaboration: a resolved spec lowered to [Net.custom] and an
    [Algo.t] whose route and wait relations are precomputed tables, or
    the first error as (byte offset, message).

    Each state (buffer, destination) takes its outputs from the first
    rule of the kind, in declaration order, whose selector matches the
    buffer and whose [to] clause is [*] or the destination; a state no
    [wait] rule matches waits on its whole route set.  Elaboration checks
    that explicit outputs leave the packet's head node (wormhole), that
    wait sets lie inside route sets, and that every source reaches every
    destination. *)

type channel_info = {
  ch_name : string;
  ch_src : int;
  ch_dst : int;
  ch_vc : int;
  ch_buffer : int;  (** buffer id in the elaborated network *)
}

type t = {
  spec : Validate.t;  (** the resolved spec, whose rule table {!Diff} reads *)
  net : Dfr_network.Net.t;
  algo : Dfr_routing.Algo.t;
  channel_infos : channel_info list;  (** declaration order *)
}

(** How a state finds its first matching rule: [Indexed] through an index
    built once from the rules, [Linear] by scanning them all (the
    reference the differential tests hold the index to). *)
type resolution = Indexed | Linear

val check : ?resolution:resolution -> Validate.t -> (t, int * string) result
(** [resolution] defaults to [Indexed]; both give the same tables and
    the same first error. *)
