(** Incremental, memoized, multicore, two-tier transformation search.

    Same beam search as {!Search.best} — same moves, same beam/steps
    defaults, same winner — but engineered for throughput:

    - {b incremental legality}: frontier nodes carry a resumable
      {!Itf_core.Legality} prefix state, so appending a move costs one
      template application instead of replaying the whole sequence;
    - {b memoization}: candidates are canonicalized with
      {!Itf_core.Sequence.reduce_memo}; a cross-step cache keyed on the
      canonical sequence's intern id (an O(1) integer probe — see
      {!Itf_mat.Hashcons} and DESIGN.md §10) answers re-derived
      transformations (interchange twice, reversal pairs, composed
      unimodulars, ...) without touching the framework. Ids serve
      equality only; every order is structural;
    - {b two-tier objective} (pass [~tier0]): every legal candidate is
      first scored by the analytic {!Costmodel} (no simulation); the
      tier-0 rank screens candidates so only the best [~exact_topk] per
      step reach the exact simulator, and the admissible tier-0 [bound]
      cuts whole subtrees branch-and-bound style against the best exact
      score seen so far (only when {!Costmodel.subtree_admissible});
    - {b multicore}: cache misses are evaluated across the process-wide
      persistent {!Pool.shared} of OCaml 5 domains ([domains = 1] never
      touches it), with small steps running sequentially
      ({!Pool.map_auto}). Merging is order-preserving, candidates are
      ranked by a total order (score, canonical sequence, raw sequence),
      and the branch-and-bound incumbent only advances between steps —
      so results are bit-identical to a sequential run.

    {b One pipeline.} Every search — the root included — runs the same
    five phases: {e expand} (moves, canonicalization, cache probes) →
    {e legality} (the cache misses) → {e tier0} (estimate, then screen)
    → {e exact} (score the screen's survivors) → {e merge} (the beam).
    The configurations differ only in the scorer choice:

    - {e untiered} ([tier0] absent): no estimator; the screen keeps every
      legal candidate, records no {!decision}, counts no tier-0
      evaluation and never bound-prunes;
    - {e tiered} ([tier0] given): the screen forwards the top
      [exact_topk] by estimate and bound-prunes;
    - {e tier-0 only} ([tier0_only]): the estimate is the exact-tier
      score, so the screen keeps everything and nothing is simulated.

    {b Observability}: pass a {!Itf_obs.Tracer} to record the span tree
    (search → root phases, then step → expand / legality / tier0 / exact
    / merge; under exact, one candidate span per survivor with its
    objective span, and the simulators attach below the objective via
    the ambient tracer). One combinator opens each phase span and books
    its time into {!Stats}, so span totals equal the {!Stats} phase
    times. Per-candidate spans are forked and joined in input order, so
    the span tree and all metric totals are identical between sequential
    and parallel runs — timings aside. Pass a {!Itf_obs.Metrics} registry
    to accumulate [legality.rejections{reason=...}] counters and the
    {!Stats} record; pass [~provenance:true] to keep every rejected
    candidate with its structured cause plus, on tiered searches, every
    tier-0 screening {!decision} ([loopt optimize --explain]).

    {!Stats} records what was done and what was avoided. *)

open Itf_ir

type cause =
  | Rejected of Itf_core.Legality.reason list
      (** the legality test failed, with the structured reasons *)
  | Unscoreable  (** legal, but the objective returned NaN or raised *)

(** What the tier-0 screen did with one legal candidate. *)
type tier0_verdict =
  | Survived  (** forwarded to the exact simulator *)
  | Screened_out  (** legal, but ranked outside the top [exact_topk] *)
  | Bound_pruned
      (** admissible bound already exceeds the incumbent exact score: the
          candidate (and, for subtree-admissible specs, all its
          descendants) can never win *)

type decision = {
  candidate : Itf_core.Sequence.t;
  tier0_score : float;
  tier0_bound : float;
  verdict : tier0_verdict;
}

type rejection = { candidate : Itf_core.Sequence.t; cause : cause }

(** Anytime budget for {!search}: a wall-clock deadline (seconds from
    search start) and/or a cap on nodes explored. Checked only at batch
    boundaries — at every step start, before a step's legality phase and
    before its exact phase. On expiry the search stops and returns the
    best-so-far incumbent marked {!Degraded} instead of raising; the
    frontier of a partially evaluated step is abandoned whole, so the
    outcome is a deterministic function of the cut point. *)
type budget = { deadline_s : float option; max_nodes : int option }

(** Whether the search ran to completion or was cut by its {!budget}.
    [Degraded.cut] names the checkpoint that tripped, e.g.
    ["step2.exact:deadline"] — same cut point, same outcome. *)
type completion = Complete | Degraded of { cut : string }

type outcome = {
  sequence : Itf_core.Sequence.t;  (** winning sequence, as generated *)
  canonical : Itf_core.Sequence.t;  (** its peephole reduction *)
  result : Itf_core.Framework.result;
  score : float;
  stats : Stats.t;
  completion : completion;
      (** {!Complete}, or {!Degraded} when the {!budget} expired and
          [sequence] is only the best found before the cut *)
  rejections : rejection list;
      (** every rejected candidate in deterministic merge order, with its
          cause — empty unless [~provenance:true] *)
  decisions : decision list;
      (** every tier-0 screening decision in deterministic screen order —
          empty unless [~provenance:true] and [~tier0] *)
}

val pp_cause : Format.formatter -> cause -> unit

val cause_labels : cause -> string list
(** Metric-label slugs of a cause ({!Itf_core.Legality.reason_label}, or
    ["unscoreable"]). *)

val verdict_label : tier0_verdict -> string
(** ["survived"], ["screened_out"] or ["bound_pruned"]. *)

val completion_label : completion -> string
(** ["ok"] or ["degraded"] — the serve-layer status slug. *)

val no_budget : budget
(** No limits — identical to omitting [?budget]. *)

val deadline : float -> budget
(** [deadline s] is a wall-clock-only budget of [s] seconds. *)

val default_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)] — leave one core for
    the rest of the process. *)

val default_exact_topk : int
(** Default [~exact_topk]: exact objective evaluations per step on tiered
    searches. *)

val objective :
  ?metrics:Itf_obs.Metrics.t ->
  ?memo:bool ->
  procs:int ->
  params:(string * int) list ->
  exact_topk:int ->
  tier0_only:bool ->
  string ->
  (Search.objective * Costmodel.spec option, string) result
(** [objective ~procs ~params ~exact_topk ~tier0_only name] is the search
    configuration behind an objective name — the one choice [loopt
    optimize], [loopt serve] and [bench --search] share: ["locality"] is
    {!Search.cache_misses} on an 8 KiB, 64-byte-line, 2-way cache;
    ["parallel"] is {!Search.parallel_time} on [procs] processors with a
    spawn overhead of 2. Each comes with the tier-0 spec that mirrors it,
    or [None] when [exact_topk = 0] (untiered search). [metrics] and
    [memo] go to the exact objective. [Error] names an unknown objective
    or the conflict of [tier0_only] with [exact_topk = 0]. *)

val search :
  ?beam:int ->
  ?steps:int ->
  ?domains:int ->
  ?tracer:Itf_obs.Tracer.t ->
  ?metrics:Itf_obs.Metrics.t ->
  ?provenance:bool ->
  ?tier0:Costmodel.spec ->
  ?exact_topk:int ->
  ?tier0_only:bool ->
  ?budget:budget ->
  Nest.t ->
  Search.objective ->
  outcome option
(** [search nest objective] beam-searches like {!Search.best} (defaults
    [beam = 6], [steps = 3]) and returns the same best score and canonical
    sequence. [domains] is the total parallelism (default
    {!default_domains}; [1] runs entirely on the calling domain).

    [tier0], when given, enables the tier-0 screen: the {!Costmodel}
    spec should mirror the exact objective (same cache geometry /
    processor count / parameters). [exact_topk] (default
    {!default_exact_topk}, clamped to at least [beam]) caps exact
    simulations per step; [tier0_only] (requires [tier0]) skips the exact
    simulator entirely and beam-searches on tier-0 scores alone — the
    untrusted-but-fast escape hatch, whose winner is {e not} guaranteed to
    match the exact search.

    [budget], when given, makes the search {e anytime}: the deadline
    and/or node cap are checked at batch boundaries only (never inside a
    batch), and on expiry the best candidate found so far is returned
    with [completion = Degraded] — never an exception. A cut abandons the
    in-flight step's frontier, so two runs cut at the same checkpoint
    return bit-identical outcomes, and a run whose budget never trips is
    bit-identical to an unbudgeted one. The root nest is always
    evaluated, budget or not: even a 0-second deadline yields the
    identity sequence rather than [None].

    [tracer]/[metrics] default to disabled; [provenance] (default false)
    retains per-candidate rejection causes and tier-0 decisions in the
    outcome. With [metrics], the final per-search cache size is published
    as the [engine.cache.size] gauge, and intern-table sizes and hit
    counts as [intern.size]/[intern.hits]/[intern.misses]/
    [intern.evictions] gauges labeled by table name. All interning runs on
    the calling domain; worker domains only read canonical values.
    Returns [None] when not even the untransformed nest is scoreable. *)
