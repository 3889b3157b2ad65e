(** Structured tracing and metrics for the checker pipeline and the
    simulators.

    The layer is {e off by default}: every probe ([span], [count],
    [gauge]) first reads one atomic word and returns immediately when no
    collector is installed, so instrumented code paths cost a few
    nanoseconds per probe when tracing is disabled (asserted to be < 2%
    of a BWG build by [bench/main.exe obs]).

    When enabled ({!enable}), probes record into a process-global
    collector that is safe to use from multiple OCaml domains:

    - {b spans} measure wall-clock intervals ([span "bwg.build" f]) with
      proper nesting (a per-domain depth is maintained in domain-local
      storage) and per-domain attribution — spans recorded by a spawned
      domain carry that domain's id, which the Chrome trace exporter maps
      to a [tid] so parallel phases render as parallel tracks;
    - {b counters} are monotonically accumulated integers ([count
      "bwg.edges" n] adds [n]); additions commute, so totals are
      deterministic even when recorded from racing domains, provided the
      instrumented program performs a deterministic amount of counted
      work (see DESIGN.md "Observability architecture" for the one
      documented exception);
    - {b gauges} are last-write-wins floats for end-of-run summary values
      (e.g. flits per 1k cycles).

    Two exporters:

    - {!trace_json} / {!write_trace}: Chrome [trace_event] format
      (load the file in [chrome://tracing] or Perfetto for a flamegraph);
    - {!metrics_json}: a flat object of counters, gauges and per-name
      span aggregates, suitable for merging into checker/sim reports.

    Timestamps come from {!Dfr_util.Monotime} ([CLOCK_MONOTONIC])
    re-based to the collector's installation instant, so they are
    immune to wall-clock steps (NTP adjustments can otherwise produce
    negative span durations mid-run).  The wall-clock time at
    installation is captured once and exported as [epochWallUs] in
    {!trace_json} for consumers that want calendar alignment. *)

val enable : unit -> unit
(** Install a fresh collector (discarding any previous one). *)

val disable : unit -> unit
(** Remove the collector; probes become no-ops again.  Recorded data is
    dropped, so export before disabling. *)

val enabled : unit -> bool

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], recording a completed-duration event when
    a collector is installed.  The event is recorded (and the nesting
    depth restored) even when [f] raises. *)

val count : string -> int -> unit
(** [count name n] adds [n] to the counter [name]. *)

val gauge : string -> float -> unit
(** [gauge name v] sets the gauge [name] to [v] (last write wins). *)

(** {2 Reading the collector} *)

val counters : unit -> (string * int) list
(** Current counter values, sorted by name; [[]] when disabled. *)

val counter_calls : unit -> (string * int) list
(** How many times each counter was recorded (as opposed to its
    accumulated value — a counter fed magnitudes, like
    [bwg.closure.words], has few calls but a large value).  Sorted by
    name; [[]] when disabled. *)

val gauges : unit -> (string * float) list

val span_totals : unit -> (string * (int * float)) list
(** Per span name: [(occurrences, total wall-clock µs)], sorted by
    name; [[]] when disabled. *)

(** {2 Process memory} *)

val peak_rss_kb : unit -> int option
(** Peak resident set size of the process in kB ([VmHWM] from
    [/proc/self/status]), covering every domain's stacks and minor heaps
    as well as the major heap; [None] when the file is unavailable
    (non-Linux).  Works whether or not a collector is installed. *)

val reset_peak_rss : unit -> bool
(** Reset the kernel's peak-RSS watermark to the current RSS (write
    ["5"] to [/proc/self/clear_refs]) so {!peak_rss_kb} measures one
    phase of a run.  Returns whether the watermark, re-read after the
    write, actually dropped: [false] when the platform refuses, and also
    when the peak already equals the current RSS — a later
    {!peak_rss_kb} then still includes whatever the process holds
    resident now. *)

val mem_json : unit -> Dfr_util.Json.t
(** Snapshot of process memory: [peak_rss_kb] (when available) plus
    [Gc.quick_stat] major-heap figures ([major_words],
    [top_heap_words], [heap_words], collection counts). *)

val metrics_json : unit -> Dfr_util.Json.t
(** [{"counters": {..}, "gauges": {..}, "spans": {name: {"count": n,
    "total_us": µs}}, "mem": {..}}] with every object sorted by key.
    Counter values are deterministic across [--domains] settings (see
    above); span timings and the [mem] section are not. *)

val trace_json : unit -> Dfr_util.Json.t
(** Chrome [trace_event] document: [{"traceEvents": [...],
    "displayTimeUnit": "ms", "epochWallUs": t}].  Each event is a
    complete ("ph": "X") event with [ts]/[dur] in microseconds (from the
    monotonic clock, relative to collector installation), [pid] 0 and
    [tid] the OCaml domain id that recorded it.  [epochWallUs] is the
    wall-clock time of collector installation in µs since the Unix
    epoch, so [epochWallUs + ts] approximates an event's calendar time;
    the field is present only while the collector is installed. *)

val write_trace : string -> unit
(** Write {!trace_json} (pretty-printed) to a file. *)
