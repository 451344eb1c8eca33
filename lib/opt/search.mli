(** Automatic transformation selection — the paper's stated "main direction
    for future work ... using this framework in an automatic transformation
    system, so as to optimize loop nests for data locality [and] parallel
    execution" (Section 6).

    The search exploits the framework's separation of transformations from
    loop nests (Section 5): candidate sequences are built, legality-checked
    and scored without mutating the nest; only the winner's generated code
    is returned. Search is beam search over template "moves"; every
    explored sequence passes through {!Itf_core.Legality}, so only legal
    transformations are ever scored. *)

open Itf_ir

type objective = Itf_core.Framework.result -> float
(** Lower is better. Receives the legality-checked result (transformed
    nest plus mapped dependence vectors). *)

type outcome = {
  sequence : Itf_core.Sequence.t;
  result : Itf_core.Framework.result;
  score : float;
  explored : int;  (** number of candidate sequences legality-checked *)
  checked_templates : int;
      (** total template stage applications performed by legality checking;
          grows quadratically with [steps] because every candidate replays
          its whole prefix (cf. {!Engine.search}, which extends prefixes
          incrementally) *)
}

val moves : ?block_sizes:int list -> Nest.t -> depth:int -> Itf_core.Template.t list
(** Candidate single-template moves for a nest currently [depth] deep:
    all interchanges and reversals, unit skews of adjacent loop pairs,
    single-loop parallelization, square blocking of contiguous ranges with
    each size in [block_sizes] (default [[4; 8]]), and full coalescing. *)

val best :
  ?beam:int ->
  ?steps:int ->
  ?block_sizes:int list ->
  Nest.t ->
  objective ->
  outcome option
(** [best nest objective] beam-searches sequences of at most [steps]
    (default 3) moves keeping the [beam] (default 6) best scored prefixes;
    returns [None] when not even the empty sequence is scoreable. The
    empty sequence is always a candidate, so the result never scores worse
    than the original nest. *)

(** {1 Ready-made objectives} *)

type backend = [ `Interpreted | `Compiled ]
(** Execution backend used to simulate candidate nests. [`Compiled]
    (the default) runs {!Itf_exec.Compile}'s slot-resolved closures;
    [`Interpreted] runs the tree-walking {!Itf_exec.Interp}. Both produce
    identical scores — the switch exists for differential testing and as
    an escape hatch. *)

val default_cache_config : Itf_machine.Cache.config
(** The cache {!cache_misses} simulates by default: 8 KiB, 64-byte lines,
    2-way set associative. *)

val cache_misses :
  ?config:Itf_machine.Cache.config -> ?backend:backend ->
  ?metrics:Itf_obs.Metrics.t -> ?memo:bool ->
  params:(string * int) list ->
  unit -> objective
(** Simulated cache misses of one full execution. Arrays are freshly
    allocated per evaluation from the nest's own access pattern with
    subscript range inferred by probing, so transformed nests score on
    identical data. [metrics], when given, accumulates [memsim.runs],
    [memsim.cache.access] and [memsim.cache.miss] counters (atomic adds —
    totals are domain-schedule independent).

    [?memo] (default [true]): the objective is a pure function of
    (config, backend, params, nest), so scores are memoized process-wide
    by instantiation fingerprint + interned nest id ({!Itf_ir.Intern}).
    Hits return the stored float bit-identically and skip the simulation
    (and its [memsim.*] counters; they bump [memsim.memo.hits] instead).
    [~memo:false] simulates every call. *)

val parallel_time :
  ?spawn_overhead:float -> ?backend:backend ->
  ?metrics:Itf_obs.Metrics.t -> ?memo:bool -> procs:int ->
  params:(string * int) list ->
  unit -> objective
(** Simulated parallel execution time on [procs] processors. [metrics]
    accumulates a [parsim.runs] counter. [?memo] as in {!cache_misses}
    (hit counter: [parsim.memo.hits]). *)
