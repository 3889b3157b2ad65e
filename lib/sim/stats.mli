(** Latency/throughput accounting shared by the simulators. *)

type t = {
  cycles : int;  (** cycles simulated *)
  injected : int;  (** packets that entered the network *)
  delivered : int;  (** packets fully consumed *)
  flits_delivered : int;
  latencies : int list;  (** per delivered packet, injection to consumption *)
}

val empty : t

val mean_latency : t -> float option
(** [None] when nothing was delivered — an idle-node run has no mean
    latency, and the former [nan] result leaked into printed tables and
    JSON reports as an unparseable token. *)

val max_latency : t -> int option
(** [None] when nothing was delivered, like {!mean_latency} — the former
    0 was indistinguishable from a genuine zero-latency delivery. *)

val percentile_latency : t -> float -> int
(** Nearest-rank percentile (rank [ceil(p*n)], 1-based) over the sorted
    latencies, e.g. [percentile_latency t 0.95]; 0 when nothing was
    delivered. *)

val throughput : t -> nodes:int -> float
(** Flits delivered per node per cycle. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> nodes:int -> Dfr_util.Json.t
(** All of the above as one object; [mean_latency] is [null] when nothing
    was delivered, so the emitted document is always valid JSON. *)
