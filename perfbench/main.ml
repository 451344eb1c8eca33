(* The benchmark: drives the program's public entry points in this one
   process and prints one JSON result line. Workloads, metrics and the
   reasons for both are in README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics with every instrument off.
   [--trace 1] measures half the time untraced and half traced, and
   prints the per-layer metrics, a self-time table and the tracing
   overhead. *)

open Itf_obs
module Engine = Itf_opt.Engine
module Serve = Itf_serve.Serve
module Framework = Itf_core.Framework

let now = Unix.gettimeofday
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workloads = [ "optimize-exact"; "serve-churn"; "serve-hot" ]
let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end

let traced = !trace = 1

(* ------------------------------------------------------------------ *)
(* Objectives and requests                                             *)
(* ------------------------------------------------------------------ *)

type obj = Locality | Parallel

let obj_label = function Locality -> "locality" | Parallel -> "parallel"
let params n = [ ("n", n) ]
let procs = 8

(* The exact objective and the tier-0 spec, built as [loopt optimize] and
   [loopt serve] build them. *)
let objective ?metrics ?backend ?memo obj n =
  match obj with
  | Locality ->
    Itf_opt.Search.cache_misses ?metrics ?backend ?memo ~params:(params n) ()
  | Parallel ->
    Itf_opt.Search.parallel_time ?metrics ?backend ?memo ~procs
      ~params:(params n) ()

let tier0 obj n =
  match obj with
  | Locality ->
    Itf_opt.Costmodel.Locality
      {
        config = { Itf_machine.Cache.size_bytes = 8192; line_bytes = 64; assoc = 2 };
        elem_bytes = 8;
        params = params n;
      }
  | Parallel ->
    Itf_opt.Costmodel.Parallel { procs; spawn_overhead = 2.0; params = params n }

type req = { kind : Kernels.kind; obj : obj; n : int; text : string }

let faulty r = List.mem r.kind Kernels.faulty

(* What the program answers for the flattened and strided kernels. *)
let fault_reason = "nest could not be scored"

type answer =
  | Answer of {
      score : float;
      sequence : string;
      payload : string;  (** serve response minus id/cached/time_ms *)
      cached : bool;
      seq : Itf_core.Sequence.t option;  (** known for direct searches *)
    }
  | Failure of string

type sample = { req : req; wall : float; answer : answer }

let rng = Random.State.make [| !seed; Hashtbl.hash !workload |]

(* Salts number the generated texts, so every text of a run is distinct. *)
let salt = ref (1 + (abs !seed mod 1000 * 1_000_000))

let fresh kind obj n =
  let sets = Kernels.var_sets in
  let vars = sets.(Random.State.int rng (Array.length sets)) in
  incr salt;
  { kind; obj; n; text = Kernels.text ~vars ~salt:!salt kind }

let shuffle l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Every catalogue kernel under both objectives. *)
let catalogue_round n_of =
  List.concat_map
    (fun k -> List.map (fun obj -> fresh k obj (n_of k obj)) [ Locality; Parallel ])
    Kernels.catalogue

(* The kernels that hit the objectives' fixed array box. Their text does
   not depend on the seed; [round] keeps each one distinct. *)
let faulty_round ~round n =
  List.map
    (fun kind ->
      {
        kind;
        obj = Locality;
        n;
        text = Kernels.text ~vars:Kernels.var_sets.(0) ~salt:(round + 1) kind;
      })
    Kernels.faulty

let render seq =
  if seq = [] then "identity" else Format.asprintf "%a" Itf_core.Sequence.pp seq

(* One search as [loopt optimize] runs it: two steps, one domain. *)
let search ?tracer ?metrics req =
  let nest = Itf_lang.Parser.parse_nest req.text in
  Engine.search ~steps:2 ~domains:1 ?tracer ?metrics
    ~tier0:(tier0 req.obj req.n) nest
    (objective ?metrics req.obj req.n)

let engine_request ?(tracer = Tracer.null) ?metrics req =
  let t = now () in
  let out =
    Tracer.span tracer "bench.search" (fun () -> search ~tracer ?metrics req)
  in
  let wall = now () -. t in
  let answer =
    match out with
    | None -> Failure fault_reason
    | Some o ->
      Answer
        {
          score = o.Engine.score;
          sequence = render o.Engine.sequence;
          payload = "";
          cached = false;
          seq = Some o.Engine.sequence;
        }
  in
  { req; wall; answer }

let request_line ~id req =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("nest", Json.String req.text);
         ("objective", Json.String (obj_label req.obj));
         ("params", Json.Obj [ ("n", Json.Int req.n) ]);
       ])

let payload = function
  | Json.Obj kvs ->
    Json.to_string
      (Json.Obj
         (List.filter
            (fun (k, _) -> not (List.mem k [ "id"; "cached"; "time_ms" ]))
            kvs))
  | v -> Json.to_string v

let answer_of_response resp =
  let str k = Option.bind (Json.member k resp) Json.to_str in
  match str "status" with
  | Some "ok" -> (
    match (Option.bind (Json.member "score" resp) Json.to_float, str "sequence") with
    | Some score, Some sequence ->
      Answer
        {
          score;
          sequence;
          payload = payload resp;
          cached = Json.member "cached" resp = Some (Json.Bool true);
          seq = None;
        }
    | _ -> Failure "ok response without score or sequence")
  | Some "error" -> Failure (Option.value ~default:"error" (str "error"))
  | Some s -> Failure ("status " ^ s)
  | None -> Failure "response without status"

let next_id = Atomic.make 0

let serve_request ?(tracer = Tracer.null) server req =
  let line = request_line ~id:(Atomic.fetch_and_add next_id 1) req in
  let t = now () in
  let resp, _ =
    Tracer.span tracer "bench.request" (fun () -> Serve.handle_line server line)
  in
  { req; wall = now () -. t; answer = answer_of_response resp }

let shutdown server =
  ignore (Serve.handle_line server {|{"op": "shutdown"}|})

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* A timed part. Wall-clock metrics are medians over [slices] — the
   rounds, or blocks of consecutive completions for concurrent clients —
   so a burst of host noise shorter than half the run does not move them. *)
type timed = {
  samples : sample list;
  slices : (float * sample list) list;  (** duration, samples *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  heap_words : int;  (** top heap when [heap_after] rounds had ended *)
}

let time f =
  let t = now () in
  f ();
  now () -. t

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then 0.
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Closed loop: whole rounds until [seconds] have passed, so every run
   attempts the same mix and the same share of faulty requests. *)
let timed_rounds ~seconds ~heap_after round =
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let slices = ref [] and heap = ref None in
  while now () -. t0 < seconds do
    let t = now () in
    let samples = round () in
    slices := (now () -. t, samples) :: !slices;
    if List.length !slices = heap_after then
      heap := Some (Gc.quick_stat ()).Gc.top_heap_words
  done;
  let gc1 = Gc.quick_stat () in
  let slices = List.rev !slices in
  {
    samples = List.concat_map snd slices;
    slices;
    gc0;
    gc1;
    heap_words = Option.value ~default:gc1.Gc.top_heap_words !heap;
  }

(* Closed loop with concurrent clients, each a thread sending its next
   request when the previous one is answered. *)
let timed_clients ~seconds ~tracer ~clients ~block request =
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let forks = Array.init clients (fun _ -> Tracer.fork tracer) in
  let out = Array.make clients [] in
  let client c =
    let rng = Random.State.make [| !seed; c; 7 |] in
    let acc = ref [] in
    while now () -. t0 < seconds do
      let s = request ~tracer:forks.(c) rng in
      acc := (now () -. t0, s) :: !acc
    done;
    out.(c) <- List.rev !acc
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create client c));
  let gc1 = Gc.quick_stat () in
  Tracer.join tracer (Array.to_list forks);
  let done_at =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.concat (Array.to_list out))
  in
  (* Slices of [block] consecutive completions; the last partial block
     only counts towards the totals. *)
  let rec slices prev acc k cur = function
    | [] -> List.rev acc
    | (t, s) :: rest ->
      if k + 1 = block then
        slices t ((t -. prev, List.rev (s :: cur)) :: acc) 0 [] rest
      else slices prev acc (k + 1) (s :: cur) rest
  in
  let slices =
    match slices 0. [] 0 [] done_at with
    | [] -> [ (now () -. t0, List.map snd done_at) ]
    | l -> l
  in
  {
    samples = List.map snd done_at;
    slices;
    gc0;
    gc1;
    heap_words = gc1.Gc.top_heap_words;
  }

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* A workload: [setup] is run [setup_reps] times on fresh inputs and its
   median reported; the last one leaves the state [timed] measures.
   [server] is the server under test, if any: its registry receives the
   engine's counters. *)
type workload = {
  setup : unit -> unit;
  timed : seconds:float -> tracer:Tracer.t -> metrics:Metrics.t option -> timed;
  server : unit -> Serve.t option;
}

let setup_reps = 3
let n_small = 8

(* Large trip counts, so exact simulation is the search's main cost,
   set per kernel and objective so that every search costs about the
   same (about 0.1 s on a 2-core host): no kernel dominates the run, and
   the latency percentiles fall where the distribution is dense. *)
let n_exact kind obj =
  match (kind, obj) with
  | Kernels.Matmul _, Locality -> 24
  | Matmul _, Parallel -> 48
  | Lu, Locality -> 36
  | Lu, Parallel -> 56
  | Stencil, Locality -> 96
  | Stencil, Parallel -> 144
  | Guarded, Locality -> 112
  | Guarded, Parallel -> 160
  | Triangular, Locality -> 128
  | Triangular, Parallel -> 144
  | Transpose, Locality -> 96
  | Transpose, Parallel -> 104
  | (Flattened | Strided), _ -> n_small

let optimize_exact () =
  {
    (* What a process pays before its first measured search: every
       catalogue kernel searched once at a small size. *)
    setup =
      (fun () ->
        List.iter
          (fun r -> ignore (search r))
          (catalogue_round (fun _ _ -> n_small)));
    timed =
      (fun ~seconds ~tracer ~metrics ->
        timed_rounds ~seconds ~heap_after:1 (fun () ->
            List.map
              (engine_request ~tracer ?metrics)
              (shuffle (catalogue_round n_exact))));
    server = (fun () -> None);
  }

let serve_churn () =
  let server = ref None and round = ref 0 in
  let get () = Option.get !server in
  {
    setup =
      (fun () ->
        Option.iter shutdown !server;
        let s = Serve.create ~workers:1 () in
        server := Some s;
        List.iter
          (fun r -> ignore (serve_request s r))
          (catalogue_round (fun _ _ -> n_small)));
    timed =
      (fun ~seconds ~tracer ~metrics:_ ->
        timed_rounds ~seconds ~heap_after:10 (fun () ->
            let reqs =
              shuffle
                (faulty_round ~round:!round n_small
                @ catalogue_round (fun _ _ -> n_small))
            in
            incr round;
            List.map (serve_request ~tracer (get ())) reqs));
    server = (fun () -> !server);
  }

(* More lines than the response cache holds, so part of the requests
   miss it and rerun the engine on warm memos. *)
let hot_salts = 12
let hot_clients = 2

let serve_hot () =
  let server = ref None and lines = ref [||] in
  {
    setup =
      (fun () ->
        Option.iter shutdown !server;
        let s = Serve.create ~workers:hot_clients () in
        let set =
          List.concat
            (List.init hot_salts (fun _ -> catalogue_round (fun _ _ -> n_small)))
        in
        server := Some s;
        lines := Array.of_list set;
        List.iter (fun r -> ignore (serve_request s r)) set);
    timed =
      (fun ~seconds ~tracer ~metrics:_ ->
        let s = Option.get !server and set = !lines in
        timed_clients ~seconds ~tracer ~clients:hot_clients ~block:200
          (fun ~tracer rng ->
            serve_request ~tracer s set.(Random.State.int rng (Array.length set))));
    server = (fun () -> !server);
  }

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* A fresh instance per nest: an objective instance fixes its array list
   on its first evaluation. *)
let resim obj n = objective ~backend:`Interpreted ~memo:false obj n

let float_text x = Json.to_string (Json.Float x)

(* A checked answer, with the identity nest's re-simulated score. *)
type winner = {
  w_req : req;
  nest : Itf_ir.Nest.t;
  seq : Itf_core.Sequence.t;
  score : float;
  identity : float;
}

(* Checks every distinct answered text once. Returns the errors and the
   checked winners by text. *)
let check samples =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let winners = Hashtbl.create 256 and seen = Hashtbl.create 256 in
  List.iter
    (fun { req; answer; _ } ->
      match (answer, faulty req) with
      | Failure reason, true ->
        if reason <> fault_reason then
          err "%s: failed with %S, expected %S" (Kernels.name req.kind) reason
            fault_reason
      | Answer _, true ->
        err "%s: answered, but the kernel should not be scoreable"
          (Kernels.name req.kind)
      | Failure reason, false ->
        err "%s (%s): failed: %s" (Kernels.name req.kind) (obj_label req.obj)
          reason
      | Answer { score; sequence; seq; _ }, false -> (
        if not (Hashtbl.mem seen req.text) then
          let () = Hashtbl.add seen req.text () in
          let nest = Itf_lang.Parser.parse_nest req.text in
          (* A serve answer names its sequence only as text: recover the
             sequence from a direct search with the same configuration,
             which must agree with it. *)
          let found =
            match seq with
            | Some s -> Some (s, score)
            | None -> (
              match search req with
              | Some o
                when render o.Engine.sequence = sequence
                     && float_text o.Engine.score = float_text score ->
                Some (o.Engine.sequence, o.Engine.score)
              | _ ->
                err "%s: serve answer %s differs from a direct search"
                  (Kernels.name req.kind) sequence;
                None)
          in
          match found with
          | None -> ()
          | Some (s, score) -> (
            match Checks.winner ~resim:(resim req.obj req.n) nest s score with
            | Ok identity ->
              Hashtbl.replace winners req.text
                { w_req = req; nest; seq = s; score; identity }
            | Error e ->
              err "%s (%s): %s" (Kernels.name req.kind) (obj_label req.obj) e)))
    samples;
  (List.rev !errors, winners)

(* serve-hot: every answer of a line equals what a fresh 1-worker server
   returns for it. *)
let check_payloads samples =
  let reference = Serve.create ~workers:1 () in
  let expected = Hashtbl.create 256 in
  let errors =
    List.filter_map
      (fun { req; answer; _ } ->
        match answer with
        | Failure _ -> None
        | Answer { payload = p; _ } ->
          let want =
            match Hashtbl.find_opt expected req.text with
            | Some w -> w
            | None ->
              let resp, _ =
                Serve.handle_line reference (request_line ~id:0 req)
              in
              let w = payload resp in
              Hashtbl.add expected req.text w;
              w
          in
          if p = want then None
          else Some (Printf.sprintf "payload %s differs from %s" p want))
      samples
  in
  shutdown reference;
  List.sort_uniq compare errors

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0. then 0. else a /. b

let answered samples =
  List.filter_map
    (fun s -> match s.answer with Answer _ -> Some s | Failure _ -> None)
    samples

let percentile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then 0.
  else a.(max 0 (min (k - 1) (int_of_float (Float.ceil (q *. fi k)) - 1)))

let requests t = fi (List.length t.samples)

(* Median over slices of the slice's request rate. *)
let rate t = median (List.map (fun (d, ss) -> fi (List.length ss) /. d) t.slices)

(* Median over slices of the slice's [q]-quantile of answered latency. *)
let latency_ms q t =
  median
    (List.filter_map
       (fun (_, ss) ->
         match answered ss with
         | [] -> None
         | xs -> Some (percentile q (List.map (fun s -> s.wall *. 1000.) xs)))
       t.slices)

let end_to_end ~setup_s t winners =
  (* Over distinct answered nests: a line a client repeats counts once. *)
  let logs =
    Hashtbl.fold (fun _ w acc -> log (w.identity /. w.score) :: acc) winners []
  in
  [
    ("requests_per_s", "1/s", rate t);
    ("latency_p50_ms", "ms", latency_ms 0.5 t);
    ("latency_p90_ms", "ms", latency_ms 0.9 t);
    ( "alloc_kw_per_request",
      "kw",
      (t.gc1.Gc.minor_words -. t.gc0.Gc.minor_words) /. requests t /. 1000. );
    ("peak_heap_mb", "MB", fi (t.heap_words * (Sys.word_size / 8)) /. 1e6);
    ( "winner_speedup",
      "x",
      exp (ratio (List.fold_left ( +. ) 0. logs) (fi (List.length logs))) );
    ("setup_s", "s", setup_s);
  ]

(* The registry figures the per-layer metrics difference over the traced
   part. *)
let phases = [ "expand"; "legality"; "tier0"; "exact"; "merge" ]

let counters =
  [
    "engine.nodes_explored"; "engine.cache.hit"; "engine.illegal";
    "engine.template_applications"; "objective.exact_evals";
    "objective.tier0_evals"; "objective.tier0_pruned"; "memsim.runs";
    "parsim.runs"; "memsim.memo.hits"; "parsim.memo.hits";
  ]

let registry_figures m =
  let hist ?labels name =
    Metrics.histogram m ?labels ~buckets:Metrics.duration_buckets name
  in
  List.map (fun c -> (c, fi (Metrics.counter_value (Metrics.counter m c)))) counters
  @ List.map
      (fun p ->
        ( "phase." ^ p,
          Metrics.histogram_sum
            (hist ~labels:[ ("phase", p) ] "engine.phase_us") ))
      phases
  @ [
      ("total_ms", Metrics.histogram_sum (hist "engine.total_time_ms"));
      ("wait_ms.sum", Metrics.histogram_sum (hist "serve.queue.wait_ms"));
      ("wait_ms.count", fi (Metrics.histogram_count (hist "serve.queue.wait_ms")));
    ]

let intern_figures () =
  List.fold_left
    (fun (size, hits, misses) s ->
      Itf_mat.Hashcons.(size + s.size, hits + s.hits, misses + s.misses))
    (0, 0, 0) (Itf_mat.Hashcons.stats ())

let lru_counts server =
  let resp, _ = Serve.handle_line server {|{"op": "status"}|} in
  let get k =
    match Option.bind (Json.member "cache" resp) (Json.member k) with
    | Some v -> fi (Option.value ~default:0 (Json.to_int v))
    | None -> 0.
  in
  (get "hits", get "misses")

let serve_snapshot server =
  (registry_figures (Serve.metrics server), lru_counts server)

(* The serve layer over the requests since [before]: response-cache hit
   ratio, mean queue wait, and the request wall time the engine does not
   account for. *)
let serve_layer server (r0, (h0, m0)) samples =
  let r1, (h1, m1) = serve_snapshot server in
  let d k = List.assoc k r1 -. List.assoc k r0 in
  let fresh =
    List.filter
      (fun s -> match s.answer with Answer { cached; _ } -> not cached | _ -> true)
      samples
  in
  let fresh_wall_us = List.fold_left (fun a s -> a +. (s.wall *. 1e6)) 0. fresh in
  [
    ("serve.lru_hit_ratio", "ratio", ratio (h1 -. h0) (h1 -. h0 +. m1 -. m0));
    ("serve.queue_wait_mean_ms", "ms", ratio (d "wait_ms.sum") (d "wait_ms.count"));
    ( "serve.overhead_us",
      "us",
      ratio (fresh_wall_us -. (d "total_ms" *. 1000.)) (fi (List.length fresh)) );
  ]

let cap k l = List.filteri (fun i _ -> i < k) l

(* Timed replays of single public calls on the workload's own inputs. *)
let replays ~tracer t winners =
  let texts =
    cap 400 (List.sort_uniq compare (List.map (fun s -> s.req.text) t.samples))
  in
  let per f xs =
    let k = List.length xs in
    ratio (time (fun () -> List.iter f xs) *. 1e6) (fi k)
  in
  let nests = List.map Itf_lang.Parser.parse_nest texts in
  let parse_us =
    Tracer.span tracer "bench.parse" (fun () ->
        per (fun s -> ignore (Itf_lang.Parser.parse_nest s)) texts)
  in
  let analysis_us =
    Tracer.span tracer "bench.analysis" (fun () ->
        per (fun n -> ignore (Itf_dep.Analysis.dependences n)) nests)
  in
  let wins =
    cap 200
      (Hashtbl.fold (fun text w acc -> (text, w) :: acc) winners []
      |> List.sort compare)
  in
  let g0 = Gc.quick_stat () in
  let apply_us =
    Tracer.span tracer "bench.apply" (fun () ->
        per (fun (_, w) -> ignore (Framework.apply w.nest w.seq)) wins)
  in
  let g1 = Gc.quick_stat () in
  let apply_alloc_kw =
    ratio (g1.Gc.minor_words -. g0.Gc.minor_words) (fi (List.length wins)) /. 1000.
  in
  (* Exact-tier throughput: memo-free compiled re-simulation of the
     locality winners. *)
  let m = Metrics.create () in
  let sims =
    List.filter_map
      (fun (_, w) ->
        if w.w_req.obj <> Locality then None
        else
          match Framework.apply w.nest w.seq with
          | Ok res -> Some (objective ~metrics:m ~memo:false Locality w.w_req.n, res)
          | Error _ -> None)
      (cap 60 wins)
  in
  let sim_us =
    Tracer.span tracer "bench.sim" (fun () ->
        time (fun () -> List.iter (fun (f, res) -> ignore (f res)) sims) *. 1e6)
  in
  let accesses =
    fi (Metrics.counter_value (Metrics.counter m "memsim.cache.access"))
  in
  [
    ("lang.parse_us", "us", parse_us);
    ("dep.analysis_us", "us", analysis_us);
    ("core.apply_us", "us", apply_us);
    ("core.apply_alloc_kw", "kw", apply_alloc_kw);
    ("sim.accesses_per_us", "1/us", ratio accesses sim_us);
  ]

let per_layer ~registry ~r0 ~i0 ~untraced t =
  let r1 = registry_figures registry in
  let d k = List.assoc k r1 -. List.assoc k r0 in
  let size0, hits0, misses0 = i0 in
  let size1, hits1, misses1 = intern_figures () in
  let n = requests t in
  let nodes = d "engine.nodes_explored" in
  let phase p = d ("phase." ^ p) in
  let tier0_est = d "objective.tier0_evals" and exact = d "objective.exact_evals" in
  let memo_hits = d "memsim.memo.hits" +. d "parsim.memo.hits" in
  let g k = k t.gc1 -. k t.gc0 in
  [
    ("core.template_applications", "count", d "engine.template_applications" /. n);
    ("core.legality_ms", "ms", phase "legality" /. 1000. /. n);
    ("core.legal_ratio", "ratio", ratio (nodes -. d "engine.illegal") nodes);
    ("tier0.estimates", "count", tier0_est /. n);
    ("tier0.ms", "ms", phase "tier0" /. 1000. /. n);
    ("tier0.us_per_estimate", "us", ratio (phase "tier0") tier0_est);
    ("tier0.pruned_ratio", "ratio", ratio (d "objective.tier0_pruned") tier0_est);
    ("exact.evaluations", "count", exact /. n);
    ("exact.ms", "ms", phase "exact" /. 1000. /. n);
    ("exact.ms_per_evaluation", "ms", ratio (phase "exact" /. 1000.) exact);
    ( "exact.memo_hit_ratio",
      "ratio",
      ratio memo_hits (memo_hits +. d "memsim.runs" +. d "parsim.runs") );
    ("engine.nodes", "count", nodes /. n);
    ("engine.cache_hit_ratio", "ratio", ratio (d "engine.cache.hit") nodes);
    ("engine.expand_ms", "ms", phase "expand" /. 1000. /. n);
    ("engine.merge_ms", "ms", phase "merge" /. 1000. /. n);
    ( "engine.residual_ms",
      "ms",
      ((d "total_ms" *. 1000.) -. List.fold_left (fun a p -> a +. phase p) 0. phases)
      /. 1000. /. n );
    ("intern.entries", "count", fi size1);
    ("intern.entries_per_request", "count", fi (size1 - size0) /. n);
    ( "intern.hit_ratio",
      "ratio",
      ratio (fi (hits1 - hits0)) (fi (hits1 - hits0 + misses1 - misses0)) );
    ( "gc.promoted_kw_per_request",
      "kw",
      g (fun s -> s.Gc.promoted_words) /. n /. 1000. );
    ( "gc.major_collections",
      "count",
      fi (t.gc1.Gc.major_collections - t.gc0.Gc.major_collections) );
    ( "gc.minor_collections_per_request",
      "count",
      fi (t.gc1.Gc.minor_collections - t.gc0.Gc.minor_collections) /. n );
    ("trace.overhead_x", "x", ratio (rate untraced) (rate t));
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let print_result ~correct ~attempted ~failed metrics =
  let metrics =
    List.map
      (fun (name, unit, v) ->
        let v = if Float.is_finite v then v else 0. in
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

(* The attempted/failed line, with the failures grouped by reason. *)
let report_failures samples =
  let reasons = Hashtbl.create 4 in
  List.iter
    (fun s ->
      match s.answer with
      | Failure r ->
        let key = Printf.sprintf "%s: %s" (Kernels.name s.req.kind) r in
        Hashtbl.replace reasons key
          (1 + Option.value ~default:0 (Hashtbl.find_opt reasons key))
      | Answer _ -> ())
    samples;
  let failed = Hashtbl.fold (fun _ k acc -> acc + k) reasons 0 in
  Printf.printf "attempted %d requests, %d failed\n" (List.length samples) failed;
  Hashtbl.iter (fun key k -> Printf.printf "  failed %d x %s\n" k key) reasons;
  failed

let checked ~hot samples =
  let errors, winners = check samples in
  let errors = errors @ if hot then check_payloads samples else [] in
  List.iteri
    (fun i e -> if i < 20 then Printf.printf "check failed: %s\n" e)
    errors;
  (errors = [], winners)

let () =
  let w =
    match !workload with
    | "optimize-exact" -> optimize_exact ()
    | "serve-churn" -> serve_churn ()
    | _ -> serve_hot ()
  in
  let hot = !workload = "serve-hot" in
  let g = Gc.get () in
  Printf.printf
    "host: %d recommended domains, OCaml %s, OCAMLRUNPARAM %s, Gc \
     minor_heap_size %d words, space_overhead %d\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value ~default:"unset" (Sys.getenv_opt "OCAMLRUNPARAM"))
    g.Gc.minor_heap_size g.Gc.space_overhead;
  let setup_s = median (List.init setup_reps (fun _ -> time w.setup)) in
  if not traced then begin
    let t = w.timed ~seconds:!seconds ~tracer:Tracer.null ~metrics:None in
    let correct, winners = checked ~hot t.samples in
    let failed = report_failures t.samples in
    print_result ~correct ~attempted:(List.length t.samples) ~failed
      (end_to_end ~setup_s t winners)
  end
  else begin
    let half = !seconds /. 2. in
    let untraced = w.timed ~seconds:half ~tracer:Tracer.null ~metrics:None in
    let tracer = Tracer.create () in
    let registry =
      match w.server () with
      | Some s -> Serve.metrics s
      | None -> Metrics.create ()
    in
    let r0 = registry_figures registry and i0 = intern_figures () in
    let before = Option.map serve_snapshot (w.server ()) in
    let t = w.timed ~seconds:half ~tracer ~metrics:(Some registry) in
    let layer = per_layer ~registry ~r0 ~i0 ~untraced t in
    let serve =
      match (w.server (), before) with
      | Some s, Some before -> serve_layer s before t.samples
      | _ ->
        (* optimize-exact has no server: its first round goes through a
           fresh 1-worker server, on the memos the searches warmed. *)
        let s = Serve.create ~workers:1 () in
        let before = serve_snapshot s in
        let first = cap (2 * List.length Kernels.catalogue) t.samples in
        let layer =
          serve_layer s before
            (List.map (fun x -> serve_request ~tracer s x.req) first)
        in
        shutdown s;
        layer
    in
    let samples = untraced.samples @ t.samples in
    let correct, winners = checked ~hot samples in
    let replayed = replays ~tracer t winners in
    if w.server () <> None then
      Tracer.span tracer "bench.engine_replay" (fun () ->
          List.iter
            (fun s -> ignore (search ~tracer s.req))
            (cap 8 (answered t.samples)));
    Format.printf "self time, traced part:@.%a@." Profile.pp
      (Profile.top 24 (Profile.of_spans (Tracer.roots tracer)));
    Printf.printf "requests/s untraced %.3f, traced %.3f\n"
      (rate untraced) (rate t);
    let failed = report_failures samples in
    print_result ~correct ~attempted:(List.length samples) ~failed
      (layer @ serve @ replayed)
  end;
  Option.iter shutdown (w.server ())
