(** Latency quantiles for serve-load reports.

    Nearest-rank over the completed-request latencies: exact for small
    sample sets, no interpolation. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [sorted] ascending and [q] in [0, 1]:
    nearest-rank.  Empty input yields [0.0]. *)
