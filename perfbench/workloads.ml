(* The three benchmark workloads (README.md here).  Each builds its
   inputs from the seed, times its set-up as the median of several
   builds, runs a warm-up round that fixes the reference outputs, then
   drives the library from one caller in a closed loop: every call is
   synchronous, so the next one starts when the previous returns. *)

module Obs = Insp.Obs

type size = Full | Tiny

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  round_p50_ms : float list;  (** median latency of each measured round *)
  round_speed : float list;  (** host speed factor of each round *)
}

let end_to_end =
  [
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
    ("cost_usd", "USD");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("work_per_s", "1/s");
    ("success_pct", "%");
  ]

let per_layer =
  [
    ("generate_s", "s");
    ("placement.self_s", "s");
    ("server_select.self_s", "s");
    ("downgrade.self_s", "s");
    ("check.self_s", "s");
    ("stage_residual_pct", "%");
    ("probes_per_op", "count");
    ("probe.hit_ratio", "ratio");
    ("try_add.reject_ratio", "ratio");
    ("absorb.reject_ratio", "ratio");
    ("acquires_per_op", "count");
    ("downgrade.steps_per_op", "count");
    ("probes_per_s", "1/s");
    ("solves_per_event", "count");
    ("ledger.add_op.minor_words", "words");
    ("ledger.probe_add.minor_words", "words");
    ("ledger.try_add.minor_words", "words");
    ("ledger.of_alloc.minor_words", "words");
    ("placement.minor_words", "words");
    ("check.minor_words", "words");
    ("downgrade.minor_words", "words");
    ("server_select.minor_words", "words");
    ("ledger.commit_share", "ratio");
    ("depart.p50_ms", "ms");
    ("depart.p99_ms", "ms");
    ("residual_s", "s");
    ("live_apps", "count");
    ("reject.placement", "count");
    ("reject.proc_budget", "count");
    ("reject.ledger", "count");
    ("reopt.improved", "count");
    ("reopt.rebalanced", "count");
    ("sim.run_s", "s");
    ("sim.events_per_run", "count");
    ("sim.recomputes_per_event", "ratio");
    ("sim.flows_per_recompute", "ratio");
    ("sim.rounds_per_recompute", "ratio");
    ("sim.component_rebuilds", "count");
    ("sim.minor_words_per_event", "words");
    ("sim.below_target", "count");
    ("trace_overhead_pct", "%");
    ("op_p50_wall_ms", "ms");
    ("host_speed", "ratio");
    ("minor_words_per_op", "words");
    ("major_collections_per_op", "count");
  ]

(* Every metric of [table], in table order; a layer a workload bypasses
   (or cannot see, see README.md) reads 0.  A name outside the table is
   a programming error. *)
let emit table values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then
        invalid_arg ("Workloads.emit: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name values), unit_))
    table

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                     *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = 1000.0 *. s

type tally = { mutable attempted : int; mutable failed : int }

(* One round of the closed loop: the latencies of its timed calls (the
   ones [op_p50_ms] is about), how many calls it made, and the work it
   completed in [busy] seconds. *)
type window = { lat : float list; calls : int; work : float; busy : float }

(* [windows] hold times scaled to the reference host speed
   ([Speed.scaled]); [scales] holds each window's factor. *)
type phase = {
  windows : window list;
  scales : float list;
  minor_words : float;
  major_collections : int;
}

(* A workload ready to measure.  [build_s] and [generate_s] collect the
   timings of every build of the inputs; [round] runs and checks one
   round; [layers] reads the workload's per-layer metrics from the sink
   and the phase of the traced half, after [reset] cleared its own
   accumulators at the start of that half. *)
type session = {
  kernel : Speed.kernel;
  tally : tally;
  build_s : float list ref;
  generate_s : float list ref;
  rebuild : unit -> unit;
  round : unit -> window;
  reset : unit -> unit;
  final_check : unit -> unit;
  cost_usd : float;
  success_pct : unit -> float;
  layers : Obs.t -> phase -> (string * float) list;
}

(* Build the inputs [reps] times, timing each build at the reference
   host speed, and keep the last; the returned [rebuild] adds one more
   timed build. *)
let setup ~kernel ~reps build =
  let times = ref [] in
  let timed_build () =
    let (r, dt), k = Speed.scaled ~kernel (fun () -> timed build) in
    times := (dt *. k) :: !times;
    r
  in
  for _ = 2 to reps do
    ignore (timed_build ())
  done;
  let inputs = timed_build () in
  (inputs, times, fun () -> ignore (timed_build ()))

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Whole rounds until [seconds] have passed (at least one), so every
   count read over a phase covers complete rounds.  Each round's times
   are scaled to the reference host speed by the kernel timed before and
   after it.  Between rounds, and outside their timing and GC counts,
   [between] runs and then a full major collection, so that no round
   pays the GC debt of the one before it. *)
let closed_loop ~kernel ~seconds ~between round =
  let t0 = now () in
  let rec go acc scales minor majors =
    let (w, dminor, dmajors), k =
      Speed.scaled ~kernel (fun () ->
          let minor0 = Gc.minor_words () in
          let major0 = (Gc.quick_stat ()).Gc.major_collections in
          let w = round () in
          ( w,
            Gc.minor_words () -. minor0,
            (Gc.quick_stat ()).Gc.major_collections - major0 ))
    in
    let w = { w with lat = List.map (( *. ) k) w.lat; busy = w.busy *. k } in
    let minor = minor +. dminor and majors = majors + dmajors in
    between ();
    Gc.full_major ();
    if now () -. t0 < seconds then go (w :: acc) (k :: scales) minor majors
    else
      {
        windows = List.rev (w :: acc);
        scales = List.rev (k :: scales);
        minor_words = minor;
        major_collections = majors;
      }
  in
  go [] [] 0.0 0

let calls p =
  float_of_int (List.fold_left (fun acc w -> acc + w.calls) 0 p.windows)

let latencies p = List.concat_map (fun w -> w.lat) p.windows

let round_p50_ms p = List.map (fun w -> ms (Pct.median w.lat)) p.windows

let end_to_end_run s ~seconds =
  let heap = heap_mb () in
  let p = closed_loop ~kernel:s.kernel ~seconds ~between:s.rebuild s.round in
  s.final_check ();
  let lat = latencies p in
  let sum f = List.fold_left (fun acc w -> acc +. f w) 0.0 p.windows in
  ( (round_p50_ms p, p.scales),
    emit end_to_end
      [
        ("setup_s", Pct.median !(s.build_s));
        ("heap_peak_mb", heap);
        ("cost_usd", s.cost_usd);
        ("op_p50_ms", ms (Pct.median lat));
        ("op_tail_ms", ms (snd (Pct.tail lat)));
        ("work_per_s", sum (fun w -> w.work) /. sum (fun w -> w.busy));
        ("success_pct", s.success_pct ());
      ] )

(* The traced run: half the time untraced, half under a profiling sink.
   The untraced half gives the GC counts (the profiler allocates) and the
   baseline of the tracing overhead. *)
let per_layer_run s ~seconds =
  let half = seconds /. 2.0 in
  let plain =
    closed_loop ~kernel:s.kernel ~seconds:half ~between:ignore s.round
  in
  s.reset ();
  let traced, sink =
    Obs.with_sink ~profile:true (fun () ->
        closed_loop ~kernel:s.kernel ~seconds:half ~between:ignore s.round)
  in
  s.final_check ();
  let p50 p = Pct.median (latencies p) in
  let wall_p50 p =
    Pct.median
      (List.concat
         (List.map2
            (fun w k -> List.map (fun l -> l /. k) w.lat)
            p.windows p.scales))
  in
  let ops = calls plain in
  ( (round_p50_ms plain @ round_p50_ms traced, plain.scales @ traced.scales),
    emit per_layer
      ([
         ("generate_s", Pct.median !(s.generate_s));
         ("trace_overhead_pct", 100.0 *. ((p50 traced /. p50 plain) -. 1.0));
         ("op_p50_wall_ms", ms (wall_p50 plain));
         ("host_speed", Pct.median (plain.scales @ traced.scales));
         ("minor_words_per_op", Layers.ratio plain.minor_words ops);
         ( "major_collections_per_op",
           Layers.ratio (float_of_int plain.major_collections) ops );
       ]
      @ s.layers sink traced) )

(* Solver-layer readings; [ops] normalizes the per-op counts. *)
let solver_layers sink ~ops =
  let c = Layers.counter sink in
  let solves = c "heur.solve.ok" +. c "heur.solve.fail" in
  let stage name = Layers.self_s sink ~named:(String.equal name) in
  let is_solve n = String.length n > 6 && String.sub n 0 6 = "solve." in
  let solve_total = Layers.total_s sink ~named:is_solve in
  let placement_s = Layers.total_s sink ~named:(String.equal "placement") in
  let words name = Layers.ratio (Layers.minor_words sink name) ops in
  [
    ("placement.self_s", Layers.ratio (stage "placement") solves);
    ("server_select.self_s", Layers.ratio (stage "server_select") solves);
    ("downgrade.self_s", Layers.ratio (stage "downgrade") solves);
    ("check.self_s", Layers.ratio (stage "check") solves);
    ( "stage_residual_pct",
      100.0 *. Layers.ratio (Layers.self_s sink ~named:is_solve) solve_total );
    ("probes_per_op", Layers.ratio (c "heur.probe") ops);
    ("probe.hit_ratio", Layers.ratio (c "heur.probe.hit") (c "heur.probe"));
    ( "try_add.reject_ratio",
      Layers.ratio (c "heur.try_add.reject")
        (c "heur.try_add.ok" +. c "heur.try_add.reject") );
    ( "absorb.reject_ratio",
      Layers.ratio (c "heur.absorb.reject")
        (c "heur.absorb.ok" +. c "heur.absorb.reject") );
    ("acquires_per_op", Layers.ratio (c "heur.acquire") ops);
    ("downgrade.steps_per_op", Layers.ratio (c "heur.downgrade.step") ops);
    ("probes_per_s", Layers.ratio (c "heur.probe") placement_s);
    ("ledger.add_op.minor_words", words "ledger.add_op");
    ("ledger.probe_add.minor_words", words "ledger.probe_add");
    ("ledger.try_add.minor_words", words "ledger.try_add");
    ("ledger.of_alloc.minor_words", words "ledger.of_alloc");
    ("placement.minor_words", words "placement");
    ("check.minor_words", words "check");
    ("downgrade.minor_words", words "downgrade");
    ("server_select.minor_words", words "server_select");
    ("ledger.commit_share", Layers.commit_share sink);
  ]

let heuristic key =
  match Insp.Solve.find key with
  | Some h -> h
  | None -> invalid_arg ("unknown heuristic " ^ key)

let generate config =
  match Insp.Instance.generate_checked config with
  | Ok inst -> inst
  | Error e -> failwith (Insp.Instance.gen_error_message e)

let pct_ok tally () =
  100.0
  *. Layers.ratio
       (float_of_int (tally.attempted - tally.failed))
       (float_of_int tally.attempted)

(* ------------------------------------------------------------------ *)
(* solve_100k: one large tree, solved over and over with Comp-Greedy    *)

let solves_per_round = 3

let solve_100k ~size ~seed =
  let n = match size with Full -> 100_000 | Tiny -> 2_000 in
  let inst, build_s, rebuild =
    setup ~kernel:Speed.Large ~reps:5 (fun () ->
        generate (Insp.Config.scale ~seed ~n_operators:n ()))
  in
  let app = inst.Insp.Instance.app and platform = inst.Insp.Instance.platform in
  let comp = heuristic "comp" in
  let tally = { attempted = 0; failed = 0 } in
  let solve () = Insp.Solve.run ~seed comp app platform in
  (* The reference solve, checked by the independent checker. *)
  let reference =
    match solve () with
    | Ok o when Insp.Check.check app platform o.Insp.Solve.alloc = [] -> o
    | Ok _ -> failwith "solve_100k: reference allocation fails the checker"
    | Error f -> failwith (Insp.Solve.failure_message f)
  in
  let last = ref reference in
  let one () =
    let r, dt = timed solve in
    tally.attempted <- tally.attempted + 1;
    (match r with
    | Ok o
      when o.Insp.Solve.cost = reference.Insp.Solve.cost
           && o.Insp.Solve.n_procs = reference.Insp.Solve.n_procs ->
      last := o
    | _ -> tally.failed <- tally.failed + 1);
    dt
  in
  let round () =
    let lat = List.init solves_per_round (fun _ -> one ()) in
    let busy = List.fold_left ( +. ) 0.0 lat in
    {
      lat;
      calls = solves_per_round;
      work = float_of_int (n * solves_per_round);
      busy;
    }
  in
  {
    kernel = Speed.Large;
    tally;
    build_s;
    generate_s = build_s;
    rebuild;
    round;
    reset = ignore;
    final_check =
      (fun () ->
        if Insp.Check.check app platform !last.Insp.Solve.alloc <> [] then
          tally.failed <- tally.failed + 1);
    cost_usd = reference.Insp.Solve.cost;
    success_pct = pct_ok tally;
    layers = (fun sink p -> solver_layers sink ~ops:(calls p));
  }

(* ------------------------------------------------------------------ *)
(* serve_churn: seeded arrival/departure streams through Insp_serve     *)

(* One round serves [n_streams] independent streams of about 1000
   applications, each on a fresh service: a single stream's acceptance
   rate moves by about a tenth from seed to seed, and four streams
   halve that. *)
let n_streams = 4

let serve_churn ~size ~seed =
  let n_apps = match size with Full -> 1000 | Tiny -> 40 in
  let module Serve = Insp.Serve in
  let module Stream = Insp.Serve_stream in
  let generate_s = ref [] in
  let (params, streams), build_s, rebuild =
    setup ~kernel:Speed.Small ~reps:10 (fun () ->
        let base = Insp.Config.make ~n_operators:60 ~seed () in
        let params =
          Serve.make_params ~base ~tenancy:Serve.Shared ~n_tenants:4
            ~card_scale:0.5 ~heuristic:(heuristic "sbu") ~reoptimize:true ()
        in
        let gen = ref 0.0 in
        let streams =
          List.init n_streams (fun j ->
              let events =
                Stream.events
                  (Stream.make ~n_apps ~n_tenants:4 ~min_operators:6
                     ~max_operators:24 ~seed:((seed * n_streams) + j) ())
              in
              (* Every arrival's instance, as [Serve] regenerates it
                 inside [handle]: proves the stream generates cleanly,
                 and times the generator the admissions pay for. *)
              let (), g =
                timed (fun () ->
                    List.iter
                      (function
                        | Stream.Arrival a ->
                          ignore
                            (generate
                               {
                                 base with
                                 Insp.Config.n_operators = a.n_operators;
                                 seed = a.app_seed;
                               })
                        | Stream.Departure _ -> ())
                      events)
              in
              gen := !gen +. g;
              events)
        in
        generate_s := !gen :: !generate_s;
        (params, streams))
  in
  let n_events =
    List.fold_left (fun acc evs -> acc + List.length evs) 0 streams
  in
  let n_arrivals =
    List.fold_left
      (fun acc evs ->
        acc
        + List.length
            (List.filter (function Stream.Arrival _ -> true | _ -> false) evs))
      0 streams
  in
  let tally = { attempted = 0; failed = 0 } in
  (* Per-layer accumulators of the traced half. *)
  let depart = ref [] and residual = ref [] and live = ref 0 in
  let serve_stream ~probe events =
    let t = Serve.create params in
    let admit = ref [] and busy = ref 0.0 in
    List.iter
      (fun ev ->
        (match ev with
        | Stream.Arrival a when probe ->
          let (), dt =
            timed (fun () ->
                ignore (Serve.residual_cards t ~tenant:a.tenant);
                ignore (Serve.residual_procs t ~tenant:a.tenant))
          in
          residual := dt :: !residual;
          live := !live + Serve.n_live t
        | _ -> ());
        let (), dt = timed (fun () -> Serve.handle t ev) in
        busy := !busy +. dt;
        match ev with
        | Stream.Arrival _ -> admit := dt :: !admit
        | Stream.Departure _ -> if probe then depart := dt :: !depart)
      events;
    ((Serve.dump_state t, Serve.totals t), !admit, !busy)
  in
  let pass ~probe = List.map (serve_stream ~probe) streams in
  let reference = List.map (fun (out, _, _) -> out) (pass ~probe:false) in
  let round () =
    (* Residual probing is the benchmark's own timer, traced half only. *)
    let outs = pass ~probe:(Obs.enabled ()) in
    tally.attempted <- tally.attempted + n_events;
    if List.map (fun (out, _, _) -> out) outs <> reference then
      tally.failed <- tally.failed + n_events;
    {
      lat = List.concat_map (fun (_, a, _) -> a) outs;
      calls = n_events;
      work = float_of_int n_events;
      busy = List.fold_left (fun acc (_, _, b) -> acc +. b) 0.0 outs;
    }
  in
  let sum f = List.fold_left (fun acc (_, tot) -> acc +. f tot) 0.0 reference in
  let layers sink p =
    let ops = calls p in
    let streams_run = float_of_int (List.length p.windows * n_streams) in
    let per_stream name = Layers.ratio (Layers.counter sink name) streams_run in
    let c = Layers.counter sink in
    [
      ( "solves_per_event",
        Layers.ratio (c "heur.solve.ok" +. c "heur.solve.fail") ops );
      ("depart.p50_ms", ms (Pct.median !depart));
      ("depart.p99_ms", ms (snd (Pct.tail !depart)));
      ("residual_s", Pct.median !residual);
      ( "live_apps",
        Layers.ratio (float_of_int !live)
          (float_of_int (List.length p.windows * n_arrivals)) );
      ("reject.placement", per_stream "serve.reject.placement");
      ("reject.proc_budget", per_stream "serve.reject.proc_budget");
      ("reject.ledger", per_stream "serve.reject.ledger");
      ("reopt.improved", per_stream "serve.reopt.improved");
      ("reopt.rebalanced", per_stream "serve.reopt.rebalanced");
    ]
    @ List.filter
        (fun (name, _) ->
          (* Serve's inner solves run under a nested sink whose spans
             [Obs.absorb] drops: no stage times here. *)
          not
            (String.ends_with ~suffix:".self_s" name
            || name = "stage_residual_pct" || name = "probes_per_s"))
        (solver_layers sink ~ops)
  in
  {
    kernel = Speed.Small;
    tally;
    build_s;
    generate_s;
    rebuild;
    round;
    reset =
      (fun () ->
        depart := [];
        residual := [];
        live := 0);
    final_check = ignore;
    cost_usd = sum (fun tot -> tot.Serve.net_cost);
    success_pct =
      (fun () ->
        100.0
        *. Layers.ratio
             (sum (fun tot -> float_of_int tot.Serve.admitted))
             (float_of_int n_arrivals));
    layers;
  }

(* ------------------------------------------------------------------ *)
(* des_validate: checker-feasible mappings executed by the DES runtime  *)

type mapping = {
  inst : Insp.Instance.t;
  alloc : Insp.Alloc.t;
  cost : float;
  expect : Insp.Runtime.report option;
}

(* The mapping set is fixed and the seed only orders it.  The DES's cost
   per event differs up to fourfold between same-size mappings (it
   follows the size of the flow components the fair-share kernel
   re-waterfills), so a seed-drawn set would be a different workload
   for every seed. *)
let des_validate ~size ~seed =
  let sizes, horizon =
    match size with
    | Full -> ([ 60; 80; 100; 120; 140 ], 200.0)
    | Tiny -> ([ 20; 30 ], 20.0)
  in
  let sbu = heuristic "sbu" in
  let generate_s = ref [] and gen_total = ref 0.0 in
  (* The k-th mapping is the first instance from seed [10_000 + 1000 k]
     on that generates and that SBU maps checker-feasibly; an instance
     with no feasible mapping is not a failed operation, so it is
     skipped (at N = 140 most are). *)
  let rec feasible n s tries =
    let config = Insp.Config.make ~n_operators:n ~seed:s () in
    let gen, g = timed (fun () -> Insp.Instance.generate_checked config) in
    gen_total := !gen_total +. g;
    let solved =
      match gen with
      | Error _ -> None
      | Ok inst -> (
        let app = inst.Insp.Instance.app
        and platform = inst.Insp.Instance.platform in
        match Insp.Solve.run ~seed:s sbu app platform with
        | Ok o when Insp.Check.check app platform o.Insp.Solve.alloc = [] ->
          Some
            { inst; alloc = o.Insp.Solve.alloc; cost = o.Insp.Solve.cost;
              expect = None }
        | _ -> None)
    in
    match solved with
    | Some m -> m
    | None when tries > 1 -> feasible n (s + 1) (tries - 1)
    | None ->
      failwith
        (Printf.sprintf "des_validate: no feasible mapping near seed %d" s)
  in
  let mappings, build_s, rebuild =
    setup ~kernel:Speed.Small ~reps:20 (fun () ->
        gen_total := 0.0;
        let ms =
          List.mapi (fun k n -> feasible n (10_000 + (1000 * k)) 1000) sizes
        in
        generate_s := !gen_total :: !generate_s;
        Insp.Prng.shuffle_list (Insp.Prng.create seed) ms)
  in
  let simulate m =
    Insp.Runtime.run ~horizon m.inst.Insp.Instance.app
      m.inst.Insp.Instance.platform m.alloc
  in
  let mappings =
    List.map (fun m -> { m with expect = Some (simulate m) }) mappings
  in
  let n_maps = List.length mappings in
  let tally = { attempted = 0; failed = 0 } in
  let below = ref 0 in
  let same (a : Insp.Runtime.report) (b : Insp.Runtime.report) =
    a.events = b.events
    && a.results_completed = b.results_completed
    && a.achieved_throughput = b.achieved_throughput
  in
  let round () =
    let events, dt =
      timed (fun () ->
          List.fold_left
            (fun acc m ->
              let r = simulate m in
              tally.attempted <- tally.attempted + 1;
              if not (Insp.Runtime.sustains_target r) then incr below;
              (match m.expect with
              | Some e when same e r -> ()
              | _ -> tally.failed <- tally.failed + 1);
              acc + r.Insp.Runtime.events)
            0 mappings)
    in
    { lat = [ dt ]; calls = n_maps; work = float_of_int events; busy = dt }
  in
  let rho_ratio =
    List.fold_left
      (fun acc m ->
        match m.expect with
        | Some r ->
          Float.min acc
            (Layers.ratio r.Insp.Runtime.achieved_throughput
               r.Insp.Runtime.target_throughput)
        | None -> acc)
      Float.infinity mappings
  in
  let layers sink p =
    let runs = calls p in
    let c = Layers.counter sink in
    let sim_events = c "sim.event" in
    [
      ( "sim.run_s",
        Layers.ratio
          (Layers.total_s sink ~named:(String.equal "sim.run"))
          runs );
      ("sim.events_per_run", Layers.ratio sim_events runs);
      ( "sim.recomputes_per_event",
        Layers.ratio (c "sim.rate_recompute") sim_events );
      ( "sim.flows_per_recompute",
        Layers.ratio (c "sim.component.flow") (c "sim.component.recompute") );
      ( "sim.rounds_per_recompute",
        Layers.ratio (c "sim.component.round") (c "sim.component.recompute") );
      ("sim.component_rebuilds", Layers.ratio (c "sim.component.rebuild") runs);
      ( "sim.minor_words_per_event",
        Layers.ratio (Layers.minor_words sink "sim.run") sim_events );
      ( "sim.below_target",
        Layers.ratio (float_of_int !below)
          (float_of_int (List.length p.windows)) );
    ]
  in
  {
    kernel = Speed.Small;
    tally;
    build_s;
    generate_s;
    rebuild;
    round;
    reset = (fun () -> below := 0);
    final_check = ignore;
    cost_usd = List.fold_left (fun acc m -> acc +. m.cost) 0.0 mappings;
    success_pct = (fun () -> 100.0 *. rho_ratio);
    layers;
  }

(* ------------------------------------------------------------------ *)

let all = [ "solve_100k"; "serve_churn"; "des_validate" ]

let run ?(size = Full) ~workload ~seed ~seconds ~trace () =
  let s =
    match workload with
    | "solve_100k" -> solve_100k ~size ~seed
    | "serve_churn" -> serve_churn ~size ~seed
    | "des_validate" -> des_validate ~size ~seed
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let (round_p50_ms, round_speed), metrics =
    if trace then per_layer_run s ~seconds else end_to_end_run s ~seconds
  in
  {
    correct = s.tally.failed = 0;
    attempted = s.tally.attempted;
    failed = s.tally.failed;
    metrics;
    round_p50_ms;
    round_speed;
  }
