open Itf_ir
module Template = Itf_core.Template
module Framework = Itf_core.Framework
module Sequence = Itf_core.Sequence
module Legality = Itf_core.Legality
module Tracer = Itf_obs.Tracer
module Metrics = Itf_obs.Metrics

type cause = Rejected of Legality.reason list | Unscoreable

type tier0_verdict = Survived | Screened_out | Bound_pruned

type decision = {
  candidate : Sequence.t;
  tier0_score : float;
  tier0_bound : float;
  verdict : tier0_verdict;
}

(* Declared after [decision] so unannotated [.candidate] / [.cause]
   accesses keep resolving here, as they did before tiering existed. *)
type rejection = { candidate : Sequence.t; cause : cause }

(* Anytime budget: wall-clock deadline (seconds from search start) and/or
   node cap, both checked only at batch boundaries — see [search]. *)
type budget = { deadline_s : float option; max_nodes : int option }

type completion = Complete | Degraded of { cut : string }

type outcome = {
  sequence : Sequence.t;
  canonical : Sequence.t;
  result : Framework.result;
  score : float;
  stats : Stats.t;
  completion : completion;
  rejections : rejection list;
  decisions : decision list;
}

let pp_cause ppf = function
  | Unscoreable ->
    Format.fprintf ppf "objective unscoreable (NaN or simulator failure)"
  | Rejected reasons ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
      Legality.pp_reason ppf reasons

let cause_labels = function
  | Unscoreable -> [ "unscoreable" ]
  | Rejected reasons -> List.map Legality.reason_label reasons

let verdict_label = function
  | Survived -> "survived"
  | Screened_out -> "screened_out"
  | Bound_pruned -> "bound_pruned"

let completion_label = function Complete -> "ok" | Degraded _ -> "degraded"

let no_budget = { deadline_s = None; max_nodes = None }

let deadline s = { no_budget with deadline_s = Some s }

(* The per-search memo is keyed on the canonical sequence's dense intern
   id — hashing and equality are single integer operations, and
   {!Sequence.reduce_memo} already computed it. Ids are used for {e
   equality only}, never ordering: the orders below stay structural, so
   winners are independent of intern-table history. *)
module KeyTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* A legality-checked candidate. [state] is the resumable prefix
   (possibly the state of [canon] rather than [seq] when the candidate
   was served from cache — the two generate the same nest, so extensions
   agree). [est] is its tier-0 estimate, written once by the tier-0 phase
   (untouched on untiered searches); [score] its exact-tier score, NaN
   until the exact phase has run. *)
type cand = {
  seq : Sequence.t;
  canon : Sequence.t;
  key : int;
  state : Framework.state;
  result : Framework.result;
  mutable est : Costmodel.estimate;
  score : float;
}

(* Cross-step memo entries: [Scored] reached the exact tier, [Checked]
   was screened out of it (a re-derived spelling skips legality and
   tier-0 work), [Failed] was rejected with a cause that replays on
   every re-derived spelling. *)
type entry = Scored of cand | Checked of cand | Failed of cause

(* Total order on candidates: (score, canonical sequence, raw sequence).
   Beam cut-offs and the final winner are therefore independent of
   generation order and of domain scheduling. *)
let order a b =
  let c = Float.compare a.score b.score in
  if c <> 0 then c
  else
    let c = Sequence.compare a.canon b.canon in
    if c <> 0 then c else Sequence.compare a.seq b.seq

(* The structural part of the candidate order alone — what the beam falls
   back to when exact scores tie. *)
let order_structural a b =
  let c = Sequence.compare a.canon b.canon in
  if c <> 0 then c else Sequence.compare a.seq b.seq

(* Same total order on tier-0 estimates. *)
let order_est a b =
  let c = Float.compare a.est.Costmodel.score b.est.Costmodel.score in
  if c <> 0 then c else order_structural a b

let no_estimate = { Costmodel.score = 0.; bound = 0. }

(* The five phases every search runs, the root included. Each runs
   through [phase] below, which opens the phase's span and books its wall
   time into the matching {!Stats} field. *)
type phase = Expand | Legality | Tier0 | Exact | Merge

let phase_slot = function
  | Expand -> 0
  | Legality -> 1
  | Tier0 -> 2
  | Exact -> 3
  | Merge -> 4

let phase_span = function
  | Expand -> "engine.expand"
  | Legality -> "engine.legality"
  | Tier0 -> "engine.tier0"
  | Exact -> "engine.exact"
  | Merge -> "engine.merge"

(* Per-search mutable state — the search context. One [sctx] is created
   at the top of every [search] call and never escapes it: the engine
   keeps NO module-level mutable state, so any number of searches may run
   concurrently (one per serve worker) as long as each holds its own
   context. The shared structures a search reaches from here — the intern
   tables, the objective/canonicalization memos, the metrics registry,
   the domain pool — are each concurrency-safe on their own terms
   (sharded tables, atomic instruments; DESIGN.md §13). The cross-step
   candidate cache is likewise per-search: concurrent requests share warm
   state through the process-wide memos, never through engine
   internals. *)
type sctx = {
  t_start : float;  (* budget clock origin: wall clock at search start *)
  mutable explored : int;
  mutable duplicates : int;
  mutable legality_hits : int;
  mutable score_hits : int;
  mutable illegal : int;
  mutable applications : int;
  mutable saved : int;
  mutable objective_evals : int;
  mutable tier0_evals : int;
  mutable tier0_pruned : int;
  times : float array;  (* wall seconds per phase, indexed by [phase_slot] *)
  mutable cut : string option;  (* first tripped budget checkpoint *)
  mutable rejections : rejection list;  (* provenance, newest first *)
  mutable decisions : decision list;  (* tier-0 provenance, newest first *)
}

let fresh_sctx () =
  {
    t_start = Unix.gettimeofday ();
    explored = 0;
    duplicates = 0;
    legality_hits = 0;
    score_hits = 0;
    illegal = 0;
    applications = 0;
    saved = 0;
    objective_evals = 0;
    tier0_evals = 0;
    tier0_pruned = 0;
    times = Array.make 5 0.;
    cut = None;
    rejections = [];
    decisions = [];
  }

(* Run one phase: open its span and book the span's own duration, so a
   traced search's span totals equal its {!Stats} phase times. *)
let phase cx tracer ?attrs ph f =
  let r, dt = Tracer.timed tracer ?attrs (phase_span ph) f in
  let k = phase_slot ph in
  cx.times.(k) <- cx.times.(k) +. dt;
  r

(* Legality of one candidate: extend the parent prefix by one template
   and run the final dependence test. Runs on worker domains — the only
   mutable state ([count]) is local. *)
let check parent t =
  let count = ref 0 in
  let verdict =
    match Framework.extend ~count parent.state t with
    | Error v -> Error (Rejected (Legality.reasons v))
    | Ok st -> (
      match Framework.finish st with
      | Error v -> Error (Rejected (Legality.reasons v))
      | Ok result -> Ok (st, result))
  in
  (verdict, !count)

let simulate objective result =
  match objective result with
  | score when Float.is_nan score -> Error Unscoreable
  | score -> Ok score
  | exception _ -> Error Unscoreable

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let default_exact_topk = 12

let objective ?metrics ?memo ~procs ~params ~exact_topk ~tier0_only name =
  let chosen =
    match name with
    | "locality" ->
      Ok
        ( Search.cache_misses ?metrics ?memo ~params (),
          Costmodel.Locality
            { config = Search.default_cache_config; elem_bytes = 8; params } )
    | "parallel" ->
      Ok
        ( Search.parallel_time ?metrics ?memo ~procs ~params (),
          Costmodel.Parallel { procs; spawn_overhead = 2.0; params } )
    | other ->
      Error
        (Printf.sprintf "unknown objective %S (use locality|parallel)" other)
  in
  match chosen with
  | Error _ as e -> e
  | Ok _ when tier0_only && exact_topk = 0 ->
    Error "tier0_only conflicts with exact_topk = 0"
  | Ok (obj, spec) -> Ok (obj, if exact_topk = 0 then None else Some spec)

let search ?(beam = 6) ?(steps = 3) ?domains ?(tracer = Tracer.null) ?metrics
    ?(provenance = false) ?tier0 ?(exact_topk = default_exact_topk)
    ?(tier0_only = false) ?budget nest (objective : Search.objective) =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  (* The scorer choice — the only place the configurations differ.
     Untiered ([tier0 = None]): no estimator, so the screen keeps every
     legal candidate. Tiered: the screen forwards the top-K by estimate
     (never fewer than the beam holds, so every beam member carries an
     exact score) and, for subtree-admissible specs, bound-prunes.
     Tier-0 only: the estimate is the exact-tier score, so the screen
     keeps everything and nothing is simulated — the root included. *)
  let estimate = Option.map Costmodel.make tier0 in
  let topk, bound_prune, root_estimate, simulated =
    match (tier0, tier0_only) with
    | None, true -> invalid_arg "Engine.search: ~tier0_only requires ~tier0"
    | Some _, true -> (max_int, false, estimate, false)
    | _, false ->
      ( max beam exact_topk,
        Option.fold ~none:false ~some:Costmodel.subtree_admissible tier0,
        None,
        true )
  in
  let exact tr c =
    if simulated then
      Tracer.span tr "engine.objective" (fun () -> simulate objective c.result)
    else Ok c.est.Costmodel.score
  in
  let cx = fresh_sctx () in
  let phase ?attrs ph f = phase cx tracer ?attrs ph f in
  let reject cand cause =
    Option.iter
      (fun m ->
        List.iter
          (fun label ->
            Metrics.incr
              (Metrics.counter m ~labels:[ ("reason", label) ]
                 "legality.rejections"))
          (cause_labels cause))
      metrics;
    if provenance then
      cx.rejections <- { candidate = cand; cause } :: cx.rejections
  in
  let decide c verdict =
    if provenance then
      cx.decisions <-
        {
          candidate = c.seq;
          tier0_score = c.est.Costmodel.score;
          tier0_bound = c.est.Costmodel.bound;
          verdict;
        }
        :: cx.decisions
  in
  (* [domains] is deliberately NOT a span attribute: the span tree must be
     identical across domain counts (it lives in the [engine.domains]
     gauge and the stats record instead). *)
  Tracer.span tracer "engine.search"
    ~attrs:(fun () -> [ ("beam", Int beam); ("steps", Int steps) ])
  @@ fun () ->
  (* Anytime budget: consulted only at batch boundaries (step starts, and
     before a step's legality and exact batches), never inside one, so a
     given cut point always yields the same incumbent — results are a
     deterministic function of the cut point, and a search that never
     trips a checkpoint is bit-identical to an unbudgeted one. Once set,
     [cx.cut] short-circuits every later checkpoint; the label is only
     built when a budget trips. *)
  let over_budget step site =
    (match (cx.cut, budget) with
    | Some _, _ | _, None -> ()
    | None, Some b ->
      let timed_out =
        match b.deadline_s with
        | Some d -> Unix.gettimeofday () -. cx.t_start >= d
        | None -> false
      in
      let nodes_out =
        match b.max_nodes with Some n -> cx.explored >= n | None -> false
      in
      if timed_out || nodes_out then
        cx.cut <-
          Some
            (Printf.sprintf "step%d%s:%s" step site
               (if timed_out then "deadline" else "nodes")));
    cx.cut <> None
  in
  (* One persistent process-wide pool, grown on demand, instead of forking
     domains per search: spawn cost rivals a whole small search. Purely
     sequential searches never touch it. *)
  let pool =
    if domains > 1 then Some (Pool.shared ~workers:(domains - 1) ()) else None
  in
  let pmap : 'a 'b. ('a -> 'b) -> 'a array -> 'b array =
   fun f input ->
    match pool with
    | None -> Array.map f input
    | Some p -> Pool.map_auto p f input
  in
  (* Cross-step memo keyed on canonical (peephole-reduced) sequences, e.g.
     reversal twice reduces to [] and is answered by the root's entry
     without touching the framework. Written exclusively by the
     coordinating thread (workers fill per-index result slots), so
     parallel runs stay bit-identical to sequential ones. *)
  let cache : entry KeyTbl.t = KeyTbl.create 256 in
  (* Exact phase: score the survivors across the pool, each into its own
     forked tracer joined back in input order (so the span tree is
     deterministic), then fill the cache in input order. Returns the
     scored candidates. *)
  let exact_phase survivors =
    phase Exact
      ~attrs:(fun () -> [ ("survivors", Int (Array.length survivors)) ])
      (fun () ->
        let forks = Array.map (fun _ -> Tracer.fork tracer) survivors in
        let scores =
          pmap
            (fun i ->
              let tr = forks.(i) and c = survivors.(i) in
              Tracer.with_ambient tr (fun () ->
                  Tracer.span tr "engine.candidate"
                    ~attrs:(fun () ->
                      [
                        ( "template",
                          String
                            (match List.rev c.seq with
                            | t :: _ -> Template.name t
                            | [] -> "identity") );
                      ])
                    (fun () -> exact tr c)))
            (Array.init (Array.length survivors) Fun.id)
        in
        Tracer.join tracer (Array.to_list forks);
        let fresh = ref [] in
        Array.iteri
          (fun i r ->
            let c = survivors.(i) in
            if simulated then cx.objective_evals <- cx.objective_evals + 1;
            match r with
            | Ok score ->
              let c = { c with score } in
              KeyTbl.replace cache c.key (Scored c);
              fresh := c :: !fresh
            | Error cause ->
              cx.illegal <- cx.illegal + 1;
              KeyTbl.replace cache c.key (Failed cause);
              reject c.seq cause)
          scores;
        List.rev !fresh)
  in
  let vectors = Itf_dep.Analysis.vectors nest in
  (* The root runs the same phases: legality, its tier-0 estimate (only
     when that is its score), the exact tier. *)
  cx.explored <- 1;
  let root =
    match
      phase Legality (fun () ->
          let st = Framework.start ~vectors nest in
          Result.map (fun r -> (st, r)) (Framework.finish st))
    with
    | Error _ -> None
    | Ok (state, result) -> (
      let est =
        phase Tier0 (fun () ->
            match root_estimate with
            | None -> no_estimate
            | Some t0 ->
              cx.tier0_evals <- cx.tier0_evals + 1;
              t0 result)
      in
      let key = snd (Sequence.reduce_memo []) in
      let c =
        { seq = []; canon = []; key; state; result; est; score = Float.nan }
      in
      match exact_phase [| c |] with [ root ] -> Some root | _ -> None)
  in
  match root with
  | None -> None
  | Some root ->
    (* Best exact score seen so far — the branch-and-bound incumbent. Only
       updated between steps, so every candidate of one step faces the
       same cutoff regardless of evaluation order. *)
    let incumbent = ref root.score in
    let bests = ref [ root ] in
    let frontier = ref [ root ] in
    (* Legality phase: check the cache misses across the pool, then fold
       counters, cache failures and rejections in input order. Returns
       the legal candidates. *)
    let legality_phase misses =
      phase Legality
        ~attrs:(fun () -> [ ("candidates", Int (Array.length misses)) ])
        (fun () ->
          let verdicts =
            pmap (fun (parent, t, _, _, _) -> check parent t) misses
          in
          let legal = ref [] in
          Array.iteri
            (fun i (verdict, apps) ->
              let _, _, seq, canon, key = misses.(i) in
              cx.applications <- cx.applications + apps;
              cx.saved <- cx.saved + max 0 (List.length seq - apps);
              match verdict with
              | Ok (state, result) ->
                legal :=
                  {
                    seq;
                    canon;
                    key;
                    state;
                    result;
                    est = no_estimate;
                    score = Float.nan;
                  }
                  :: !legal
              | Error cause ->
                cx.illegal <- cx.illegal + 1;
                KeyTbl.replace cache key (Failed cause);
                reject seq cause)
            verdicts;
          Array.of_list (List.rev !legal))
    in
    (* Screen, deterministically: sort every estimated candidate (fresh
       and cached alike) by the estimate order; cut dominated subtrees
       with the admissible bound against the incumbent; the top-K by
       estimate reach the exact tier. The [beam] structurally-smallest
       survivors of the bound cut are forwarded too: the beam breaks
       exact-score ties on the structural order, so those candidates must
       hold exact scores — otherwise a screen full of estimator favorites
       rekeys the whole frontier whenever the exact objective ties
       (estimator noise), collapsing the cross-step cache and inflating
       legality work on bulky nests. Extra exact scores never change the
       winner: they can only move the beam toward the untiered one. *)
    let screen estimated =
      let bound_ok =
        List.filter
          (fun c ->
            if bound_prune && c.est.Costmodel.bound > !incumbent then begin
              (* exact(c) and exact(every descendant) >= bound >
                 incumbent: neither can ever win. *)
              cx.tier0_pruned <- cx.tier0_pruned + 1;
              decide c Bound_pruned;
              KeyTbl.replace cache c.key (Checked c);
              false
            end
            else true)
          (List.sort order_est estimated)
      in
      let smallest =
        if List.compare_length_with bound_ok topk <= 0 then []
        else
          List.filteri
            (fun k _ -> k < beam)
            (List.sort order_structural bound_ok)
          |> List.map (fun c -> c.key)
      in
      (* The top-K cut never splits an estimate tie class: tied
         candidates are indistinguishable to the screen, so which side of
         the cut they land on would be decided by the structural
         tie-break alone — and the exact tier (which the beam trusts)
         must see all of them or none. *)
      let survivors = ref [] and kept = ref 0 in
      let last_kept_est = ref Float.nan in
      List.iter
        (fun c ->
          let est = c.est.Costmodel.score in
          if
            !kept < topk || est = !last_kept_est
            || List.exists (Int.equal c.key) smallest
          then begin
            incr kept;
            if !kept <= topk then last_kept_est := est;
            decide c Survived;
            survivors := c :: !survivors
          end
          else begin
            cx.tier0_pruned <- cx.tier0_pruned + 1;
            decide c Screened_out;
            KeyTbl.replace cache c.key (Checked c)
          end)
        bound_ok;
      Array.of_list (List.rev !survivors)
    in
    (* Tier-0 phase: estimate the fresh legal candidates across the pool
       and screen them with the cached ones. Untiered, there is nothing
       to estimate and every legal candidate survives (no [Checked]
       entry ever exists then). *)
    let tier0_phase legal checked_hits =
      phase Tier0
        ~attrs:(fun () -> [ ("candidates", Int (Array.length legal)) ])
        (fun () ->
          match estimate with
          | None -> legal
          | Some t0 ->
            let ests = pmap (fun c -> t0 c.result) legal in
            Array.iteri (fun i c -> c.est <- ests.(i)) legal;
            cx.tier0_evals <- cx.tier0_evals + Array.length legal;
            screen (checked_hits @ Array.to_list legal))
    in
    (* Expand: generate moves, canonicalize, dedupe within the step (first
       spelling wins), consult the cache. Sequential — cheap relative to
       evaluation, and keeps all interning and cache access on the
       coordinating thread. *)
    let expand () =
      let seen = KeyTbl.create 64 in
      let hits = ref [] and checked_hits = ref [] and misses = ref [] in
      List.iter
        (fun parent ->
          let depth = Nest.depth parent.result.Framework.nest in
          List.iter
            (fun t ->
              let seq = parent.seq @ [ t ] in
              let canon, key = Sequence.reduce_memo seq in
              if KeyTbl.mem seen key then cx.duplicates <- cx.duplicates + 1
              else begin
                KeyTbl.add seen key ();
                cx.explored <- cx.explored + 1;
                match KeyTbl.find_opt cache key with
                | Some (Scored c) ->
                  cx.legality_hits <- cx.legality_hits + 1;
                  cx.score_hits <- cx.score_hits + 1;
                  cx.saved <- cx.saved + List.length seq;
                  hits := { c with seq; canon; key } :: !hits
                | Some (Checked c) ->
                  cx.legality_hits <- cx.legality_hits + 1;
                  cx.saved <- cx.saved + List.length seq;
                  checked_hits := { c with seq; canon; key } :: !checked_hits
                | Some (Failed cause) ->
                  cx.legality_hits <- cx.legality_hits + 1;
                  cx.illegal <- cx.illegal + 1;
                  cx.saved <- cx.saved + List.length seq;
                  reject seq cause
                | None -> misses := (parent, t, seq, canon, key) :: !misses
              end)
            (Search.moves nest ~depth))
        !frontier;
      (List.rev !hits, List.rev !checked_hits, Array.of_list (List.rev !misses))
    in
    for step = 1 to steps do
      if not (over_budget step "") then
        Tracer.span tracer "engine.step"
          ~attrs:(fun () -> [ ("step", Int step) ])
          (fun () ->
            let hits, checked_hits, misses = phase Expand expand in
            Tracer.add_attrs tracer
              [
                ( "cache_hits",
                  Int (List.length hits + List.length checked_hits) );
                ("misses", Int (Array.length misses));
              ];
            (* A budget cut abandons the rest of the step: the frontier,
               incumbent and best-so-far list stay exactly as the last
               completed step left them, so the outcome is the same
               whichever batch the cut interrupted. *)
            if not (over_budget step ".evaluate") then begin
              let legal = legality_phase misses in
              let survivors = tier0_phase legal checked_hits in
              if not (over_budget step ".exact") then begin
                let fresh = exact_phase survivors in
                (* Merge: select the beam with the total order, advance
                   the branch-and-bound incumbent. *)
                phase Merge (fun () ->
                    let top =
                      List.filteri
                        (fun k _ -> k < beam)
                        (List.sort order (hits @ fresh))
                    in
                    (match top with
                    | best :: _ ->
                      incumbent := Float.min !incumbent best.score
                    | [] -> ());
                    frontier := top;
                    bests := top @ !bests)
              end
            end)
    done;
    let winner = List.hd (List.sort order !bests) in
    let time ph = cx.times.(phase_slot ph) in
    let stats =
      {
        Stats.nodes_explored = cx.explored;
        duplicates_pruned = cx.duplicates;
        legality_cache_hits = cx.legality_hits;
        score_cache_hits = cx.score_hits;
        illegal = cx.illegal;
        template_applications = cx.applications;
        template_applications_saved = cx.saved;
        objective_evaluations = cx.objective_evals;
        tier0_evaluations = cx.tier0_evals;
        tier0_pruned = cx.tier0_pruned;
        domains;
        work_threshold = (if domains > 1 then Pool.default_threshold else 0);
        expand_time_s = time Expand;
        legality_time_s = time Legality;
        tier0_time_s = time Tier0;
        exact_time_s = time Exact;
        merge_time_s = time Merge;
        total_time_s = Unix.gettimeofday () -. cx.t_start;
      }
    in
    (* The stats record, the final cache size and the intern/memo table
       health, one gauge set per table labeled by table name. Gauges are
       absolute process-wide values (last write wins), so repeated
       searches just refresh them. *)
    Option.iter
      (fun m ->
        Stats.record m stats;
        Metrics.set
          (Metrics.gauge m "engine.cache.size")
          (float (KeyTbl.length cache));
        List.iter
          (fun s ->
            let labels = [ ("table", s.Itf_mat.Hashcons.name) ] in
            let g name v =
              Metrics.set (Metrics.gauge m ~labels name) (float v)
            in
            g "intern.size" s.Itf_mat.Hashcons.size;
            g "intern.hits" s.Itf_mat.Hashcons.hits;
            g "intern.misses" s.Itf_mat.Hashcons.misses;
            g "intern.evictions" s.Itf_mat.Hashcons.evictions)
          (Itf_mat.Hashcons.stats ()))
      metrics;
    Some
      {
        sequence = winner.seq;
        canonical = winner.canon;
        result = winner.result;
        score = winner.score;
        stats;
        completion =
          (match cx.cut with
          | None -> Complete
          | Some site -> Degraded { cut = site });
        rejections = List.rev cx.rejections;
        decisions = List.rev cx.decisions;
      }
