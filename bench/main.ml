(* Benchmark and reproduction harness.

   Usage:
     dune exec bench/main.exe                  # every experiment + timings
     dune exec bench/main.exe -- fig2a fig3    # selected experiments only
     dune exec bench/main.exe -- catalog       # just the Table-1 catalog
     dune exec bench/main.exe -- --quick       # fast mode (fewer seeds)
     dune exec bench/main.exe -- --json F      # machine-readable summary to F
     dune exec bench/main.exe -- --jobs N      # N sweep domains (same output)

   For every table and figure of the paper's evaluation (see DESIGN.md
   §4) this prints the regenerated series as a text table plus a CSV
   block, then the timed rows (journal overhead, serve, faults, lint,
   probe throughput, scale and allocation) that --json records. *)

let line title =
  Printf.printf "\n======== %s ========\n%!" title

(* ------------------------------------------------------------------ *)
(* Experiment reproduction                                             *)

let catalog_table () =
  Format.printf "%a@." Insp.Catalog.pp Insp.Catalog.dell_2008

(* Each experiment runs under its own observability sink and wall-clock
   timer; the per-experiment recorders feed the text reports and the
   --json summary. *)
let run_experiment ~quick ~jobs id =
  line ("experiment " ^ id);
  match id with
  | "catalog" ->
    catalog_table ();
    None
  | _ -> (
    let t0 = Unix.gettimeofday () in
    let out, recorder =
      Insp.Obs.with_sink (fun () -> Insp.Suite.run_by_id ~quick ~jobs id)
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    match out with
    | Some output ->
      print_string output;
      Printf.printf "\n-- observability (%s, %.2f s) --\n%s" id wall_s
        (Insp.Obs_export.text_report recorder);
      Some (id, wall_s, recorder)
    | None ->
      Printf.printf "unknown experiment: %s\n" id;
      None)

(* BENCH_insp.json: headline wall time and recorded counters/gauges per
   experiment, for trend tracking across commits. *)
let bench_json ~quick results =
  let b = Buffer.create 4096 in
  let esc s =
    String.concat ""
      (List.map
         (function
           | '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"insp-bench-v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b "  \"experiments\": [";
  List.iteri
    (fun i (id, wall_s, (recorder : Insp.Obs.t)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    {\"id\": \"%s\", \"wall_s\": %.3f" (esc id)
           wall_s);
      let snapshot = Insp.Obs_metrics.snapshot recorder.Insp.Obs.metrics in
      let fields kind select =
        let entries = List.filter_map select snapshot in
        if entries <> [] then begin
          Buffer.add_string b (Printf.sprintf ",\n     \"%s\": {" kind);
          List.iteri
            (fun j (name, v) ->
              if j > 0 then Buffer.add_string b ", ";
              Buffer.add_string b (Printf.sprintf "\"%s\": %s" (esc name) v))
            entries;
          Buffer.add_char b '}'
        end
      in
      fields "counters" (function
        | name, Insp.Obs_metrics.Counter_v c -> Some (name, string_of_int c)
        | _ -> None);
      fields "gauges" (function
        | name, Insp.Obs_metrics.Gauge_v g ->
          Some (name, Printf.sprintf "%.6g" g)
        | _ -> None);
      Buffer.add_string b "}")
    results;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let summarize_rankings ~quick () =
  line "ranking summary (lowest mean cost per x point)";
  let figures =
    if quick then
      [ Insp.Suite.fig2a ~seeds:[ 1; 2 ] ~ns:[ 20; 60 ] () ]
    else
      [
        Insp.Suite.fig2a ();
        Insp.Suite.fig2b ();
        Insp.Suite.fig3 ();
        Insp.Suite.large_objects ();
      ]
  in
  List.iter
    (fun fig ->
      let wins = Insp.Figure.winner_counts fig in
      Printf.printf "%-6s: %s\n" fig.Insp.Figure.id
        (String.concat ", "
           (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) wins)))
    figures

let run_ablations ~quick () =
  line "ablation studies (design choices, DESIGN.md)";
  List.iter
    (fun (id, render) ->
      Printf.printf "\n-- %s --\n%!" id;
      print_string (render ~quick))
    Insp_experiments.Ablations.all

(* ------------------------------------------------------------------ *)
(* Scale rows: the candidate-queue greedy on 10k/100k-operator trees    *)

(* Each scale row generates a Config.scale instance (tiny objects, so
   the unchanged dell_2008 catalog still hosts the tree) and runs the
   queue-based Comp-Greedy pipeline end to end — placement, server
   selection, downgrade and the full checker.  The row records a hard
   wall-clock budget (gauge "wall_budget_s"); bench/compare.exe fails
   when a scale.* row exceeds its own budget (DESIGN.md §16). *)
let scale_entry ~n ~budget_s name () =
  line (Printf.sprintf "%s (%d-operator scale instance)" name n);
  let inst =
    match
      Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:n ())
    with
    | Ok t -> t
    | Error e -> failwith (Insp.Instance.gen_error_message e)
  in
  let t0 = Unix.gettimeofday () in
  let outcome, recorder =
    Insp.Obs.with_sink (fun () ->
        Insp.Solve.run ~seed:1
          (Option.get (Insp.Solve.find "comp"))
          inst.Insp.Instance.app inst.Insp.Instance.platform)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "wall_budget_s" budget_s;
  Insp.Obs_metrics.set_gauge m "scale.ops_per_s"
    (float_of_int n /. Float.max wall_s 1e-9);
  (match outcome with
  | Ok o ->
    Insp.Obs_metrics.incr ~by:o.Insp.Solve.n_procs m "scale.procs";
    Printf.printf
      "N=%d: %d processors, $%.0f in %.2f s (%.0f operators/s, budget %.1f s)\n%!"
      n o.Insp.Solve.n_procs o.Insp.Solve.cost wall_s
      (float_of_int n /. Float.max wall_s 1e-9)
      budget_s
  | Error f ->
    Printf.printf "N=%d: FAILED: %s\n%!" n (Insp.Solve.failure_message f));
  (name, wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Allocation rows: minor words per solve, attributed via Obs.Prof      *)

(* Run the scale-preset solve under a profiling sink and report the
   profiler's totals as gauges.  "alloc.minor_words" is a hard-gated
   row: bench/compare.exe fails when it exceeds the committed
   "alloc_budget_words" (DESIGN.md §17) — the allocation analogue of
   the scale rows' wall budget.  Minor words are a deterministic
   function of the (deterministic) solve, so unlike wall gauges the
   value is byte-stable run-to-run and any change is a code change. *)
let prof_totals recorder =
  match recorder.Insp.Obs.prof with
  | Some p -> (Insp.Obs_prof.totals p, Insp.Obs_prof.rows p)
  | None -> failwith "alloc row: sink has no profiler"

(* Share of the commit path's self minor words that carries a
   "ledger.*" span — the acceptance bar for attribution granularity:
   anonymous phase self cannot direct flattening work, ledger spans
   can.  The commit path is the placement phase subtree. *)
let commit_ledger_share rows =
  let segs (r : Insp.Obs_prof.row) =
    String.split_on_char '/' r.Insp.Obs_prof.path
  in
  let in_commit r = List.mem "placement" (segs r) in
  let is_ledger r =
    List.exists
      (fun seg -> String.length seg >= 7 && String.sub seg 0 7 = "ledger.")
      (segs r)
  in
  let total, ledger =
    List.fold_left
      (fun (t, l) r ->
        if in_commit r then
          ( t +. r.Insp.Obs_prof.self_minor,
            if is_ledger r then l +. r.Insp.Obs_prof.self_minor else l )
        else (t, l))
      (0.0, 0.0) rows
  in
  ledger /. Float.max total 1.0

let alloc_entry ~n ~budget_words name () =
  line (Printf.sprintf "%s (minor words, %d-operator scale solve)" name n);
  let inst =
    match
      Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:n ())
    with
    | Ok t -> t
    | Error e -> failwith (Insp.Instance.gen_error_message e)
  in
  let t0 = Unix.gettimeofday () in
  let outcome, recorder =
    Insp.Obs.with_sink ~profile:true (fun () ->
        Insp.Solve.run ~seed:1
          (Option.get (Insp.Solve.find "comp"))
          inst.Insp.Instance.app inst.Insp.Instance.platform)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Ok _ -> ()
  | Error f -> failwith (Insp.Solve.failure_message f));
  let totals, rows = prof_totals recorder in
  let minor = totals.Insp.Obs_prof.t_minor in
  let share = commit_ledger_share rows in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
  Insp.Obs_metrics.set_gauge m "alloc_budget_words" budget_words;
  Insp.Obs_metrics.set_gauge m "alloc.words_per_op" (minor /. float_of_int n);
  Insp.Obs_metrics.set_gauge m "alloc.commit_ledger_share" share;
  Printf.printf
    "N=%d: %.0f minor words (%.1f per operator, commit-path ledger share \
     %.1f%%, budget %.0f)\n\
     %!"
    n minor
    (minor /. float_of_int n)
    (100.0 *. share) budget_words;
  print_string (Insp.Obs_export.prof_report ~top:8 recorder);
  (name, wall_s, recorder)

(* Same contract for the online service: minor words across the serve
   event loop, gated per event so --quick (120 apps) and full (1000)
   runs share one budget constant. *)
let alloc_serve_entry ~quick () =
  line "alloc.serve_1k (minor words, serve event loop)";
  let n_apps = if quick then 120 else 1000 in
  (* ~11.3k words/event measured (admission solve + ledger probe per
     arrival); per-event budget so --quick (120 apps) and full (1000)
     runs share one constant. *)
  let per_event_budget = 16_000.0 in
  let spec = Insp.Serve_stream.make ~n_apps ~seed:1 () in
  let events = Insp.Serve_stream.events spec in
  let params =
    Insp.Serve.make_params
      ~base:(Insp.Config.make ~n_operators:60 ~seed:1 ())
      ~proc_budget:128 ~card_scale:0.08 ()
  in
  let t0 = Unix.gettimeofday () in
  let _state, recorder =
    Insp.Obs.with_sink ~profile:true (fun () -> Insp.Serve.run params events)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let totals, _rows = prof_totals recorder in
  let minor = totals.Insp.Obs_prof.t_minor in
  let n_events = List.length events in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.set_gauge m "alloc.minor_words" minor;
  Insp.Obs_metrics.set_gauge m "alloc_budget_words"
    (per_event_budget *. float_of_int n_events);
  Insp.Obs_metrics.set_gauge m "alloc.words_per_event"
    (minor /. float_of_int (max 1 n_events));
  Printf.printf "%d events: %.0f minor words (%.0f per event)\n%!" n_events
    minor
    (minor /. float_of_int (max 1 n_events));
  ("alloc.serve_1k", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Ledger probe throughput                                            *)

(* Greedy first fit in operator-id order: each operator is probed
   against every live group, else gets a new most-expensive processor.
   Returns (probes, groups built).  test_ledger checks the same
   construction's verdicts against a from-scratch prober. *)
let greedy_ledger app platform =
  let best = Insp.Catalog.best platform.Insp.Platform.catalog in
  let b = Insp.Builder.create app platform in
  let probes = ref 0 in
  for i = 0 to Insp.App.n_operators app - 1 do
    let placed =
      List.exists
        (fun gid ->
          incr probes;
          Insp.Builder.try_add b gid i)
        (Insp.Builder.group_ids b)
    in
    if not placed then begin
      incr probes;
      ignore (Insp.Builder.acquire b ~config:best ~members:[ i ])
    end
  done;
  (!probes, List.length (Insp.Builder.group_ids b))

(* Ledger probe throughput on a scale-preset tree, as a tracked JSON
   row. *)
let probe_throughput_entry ~quick () =
  line "probe throughput (ledger greedy first-fit, scale preset)";
  let n = if quick then 500 else 2000 in
  let inst =
    match
      Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:n ())
    with
    | Ok t -> t
    | Error e -> failwith (Insp.Instance.gen_error_message e)
  in
  let t0 = Unix.gettimeofday () in
  let probes, groups =
    greedy_ledger inst.Insp.Instance.app inst.Insp.Instance.platform
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let tput = float_of_int probes /. Float.max wall_s 1e-9 in
  Printf.printf "N=%d: %d probes, %d groups in %.3f s (%.0f probes/s)\n%!" n
    probes groups wall_s tput;
  let recorder = Insp.Obs.create () in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.incr ~by:probes m "probe.probes";
  Insp.Obs_metrics.incr ~by:groups m "probe.groups";
  Insp.Obs_metrics.set_gauge m "probe.probes_per_s" tput;
  ("probe.throughput", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Paper-style instance shared by the rows below                      *)

let fixed_instance n =
  Insp.Instance.generate
    (Insp.Config.make ~n_operators:n ~alpha:0.9 ~seed:1 ())

(* ------------------------------------------------------------------ *)
(* Journal recording overhead: the zero-cost-when-off claim             *)

(* Same heuristic-suite workload with no sink installed and with a
   journaling sink; the delta is what `Obs.event` guards plus event
   construction cost.  Reported as a synthetic BENCH_insp.json row so
   bench-compare tracks it across commits. *)
let journal_overhead_entry ~quick () =
  line "journal overhead (no sink vs recording)";
  let inst = fixed_instance 30 in
  let work () =
    ignore
      (Insp.Solve.run_all ~seed:1 inst.Insp.Instance.app
         inst.Insp.Instance.platform)
  in
  let reps = if quick then 5 else 30 in
  let time f =
    (* one warmup rep keeps allocator state comparable between regimes *)
    f ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let off_s = time work in
  let events = ref 0 in
  let on_s =
    time (fun () ->
        let (), r = Insp.Obs.with_sink ~journal:true work in
        events := Insp.Obs_journal.length r.Insp.Obs.journal)
  in
  let overhead_pct = 100.0 *. ((on_s /. Float.max off_s 1e-9) -. 1.0) in
  Printf.printf
    "no sink:   %8.2f ms/run\n\
     recording: %8.2f ms/run  (%d journal events per run)\n\
     overhead:  %+7.1f%%\n\
     %!"
    (off_s *. 1e3) (on_s *. 1e3) !events overhead_pct;
  let recorder = Insp.Obs.create () in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.incr ~by:!events m "journal.events";
  (* the _ms suffix marks these as wall-time gauges: bench-compare
     reports them but exempts them from the --strict drift check *)
  Insp.Obs_metrics.set_gauge m "journal.wall_off_ms" (off_s *. 1e3);
  Insp.Obs_metrics.set_gauge m "journal.wall_on_ms" (on_s *. 1e3);
  ("journal.overhead", on_s *. float_of_int reps, recorder)

(* ------------------------------------------------------------------ *)
(* Online service throughput: the serve event loop                      *)

(* One shared-substrate pass over the default 1000-application stream
   (admission solve + ledger probe per arrival, reclamation per
   departure).  The admitted/rejected counters ride along in the JSON
   row so bench-compare flags behavioural drift, not just wall time. *)
let serve_entry ~quick () =
  line "serve loop (shared substrate, 1k-application stream)";
  let n_apps = if quick then 120 else 1000 in
  let spec = Insp.Serve_stream.make ~n_apps ~seed:1 () in
  let events = Insp.Serve_stream.events spec in
  let params =
    Insp.Serve.make_params
      ~base:(Insp.Config.make ~n_operators:60 ~seed:1 ())
      ~proc_budget:128 ~card_scale:0.08 ()
  in
  let t0 = Unix.gettimeofday () in
  let state, recorder =
    Insp.Obs.with_sink (fun () -> Insp.Serve.run params events)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let totals = Insp.Serve.totals state in
  Printf.printf "%d events: admitted %d, rejected %d (%.1f%%) in %.2f s\n%!"
    (List.length events) totals.Insp.Serve.admitted totals.Insp.Serve.rejected
    (100.0 *. Insp.Serve.rejection_rate totals)
    wall_s;
  ("serve.1k_events", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Fault repair loop: sustained crash/repair throughput                 *)

(* An all-crash timeline (bursty, ~2 victims per event) driven through
   the fault engine with DES measurement off: every cycle is one
   builder rebuild + displaced-operator re-placement + checker pass.
   The repair counters (migrations, rebuys) ride along in the JSON row
   so bench-compare flags behavioural drift in the repair policy, not
   just wall time. *)
let faults_repair_entry ~quick () =
  line "fault repair loop (crash/repair cycles, no DES)";
  let n_events = if quick then 60 else 500 in
  let inst = fixed_instance 40 in
  let alloc =
    match
      Insp.Solve.run ~seed:1
        (Option.get (Insp.Solve.find "sbu"))
        inst.Insp.Instance.app inst.Insp.Instance.platform
    with
    | Ok o -> o.Insp.Solve.alloc
    | Error f -> failwith (Insp.Solve.failure_message f)
  in
  let timeline =
    Insp.Fault_scenario.generate
      (Insp.Fault_scenario.make ~seed:1 ~horizon:100000.0 ~n_events
         ~mean_burst:2 ~crash_w:1 ~degrade_w:0 ~outage_w:0 ~jitter_w:0
         ~rho_w:0 ())
  in
  let spec = Insp.Fault_engine.make_spec ~measure:false () in
  let t0 = Unix.gettimeofday () in
  let report, recorder =
    Insp.Obs.with_sink (fun () ->
        Insp.Fault_engine.run spec inst.Insp.Instance.app
          inst.Insp.Instance.platform alloc timeline)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let total_mig =
    List.fold_left
      (fun a (e : Insp.Fault_engine.episode) -> a + e.Insp.Fault_engine.ep_migrations)
      0 report.Insp.Fault_engine.episodes
  in
  Printf.printf
    "%d crashes repaired (%d migrations, %.0f $ re-allocated) in %.2f s \
     (%.0f repairs/s)\n%!"
    report.Insp.Fault_engine.n_crashes total_mig
    report.Insp.Fault_engine.total_realloc_cost wall_s
    (float_of_int report.Insp.Fault_engine.n_crashes /. Float.max wall_s 1e-9);
  ("faults.repair_1k", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Redundancy hardening: the K=1 cost-of-resilience point               *)

let faults_frontier_entry ~quick () =
  line "redundancy frontier (K=1 hardening)";
  let n = if quick then 20 else 40 in
  let inst = fixed_instance n in
  let alloc =
    match
      Insp.Solve.run ~seed:1
        (Option.get (Insp.Solve.find "sbu"))
        inst.Insp.Instance.app inst.Insp.Instance.platform
    with
    | Ok o -> o.Insp.Solve.alloc
    | Error f -> failwith (Insp.Solve.failure_message f)
  in
  let t0 = Unix.gettimeofday () in
  let hardened, recorder =
    Insp.Obs.with_sink (fun () ->
        match
          Insp.Redundancy.harden ~k:1 inst.Insp.Instance.app
            inst.Insp.Instance.platform alloc
        with
        | Ok hd ->
          Insp.Obs.gauge "faults.frontier.base_cost" hd.Insp.Redundancy.base_cost;
          Insp.Obs.gauge "faults.frontier.cost" hd.Insp.Redundancy.cost;
          Some hd
        | Error _ -> None)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (match hardened with
  | Some hd ->
    Printf.printf "K=1: %d spare(s), $%.0f over $%.0f base in %.2f s\n%!"
      hd.Insp.Redundancy.spares hd.Insp.Redundancy.cost
      hd.Insp.Redundancy.base_cost wall_s
  | None -> Printf.printf "K=1: hardening failed in %.2f s\n%!" wall_s);
  ("faults.k1_frontier", wall_s, recorder)

(* ------------------------------------------------------------------ *)
(* Lint wall time: per-file rules plus the whole-program deep pass      *)

(* A synthetic row so bench-compare catches analysis slowdowns — the
   deep pass (cmt load, call graph, effects, T1–T3) is bounded at ~2 s
   for the whole repo (DESIGN.md §14).  The finding count rides along:
   nonzero means the tree no longer lints clean.  Runs on whatever
   typedtrees the surrounding build left under _build; without any
   (bare source checkout) the deep half is skipped. *)
let lint_entry ~quick:_ () =
  line "lint (per-file rules + whole-program T1-T3)";
  let roots = List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "test" ] in
  let t0 = Unix.gettimeofday () in
  let shallow = Insp_lint.Driver.lint_roots roots in
  let deep, units =
    match Insp_lint.Cmt_loader.load ~root:"_build/default" () with
    | loaded ->
      let under_roots file =
        List.exists (fun r -> String.starts_with ~prefix:(r ^ "/") file) roots
      in
      let findings =
        Insp_lint.Deep.analyze (Insp_lint.Callgraph.build loaded)
        |> List.filter (fun f -> under_roots f.Insp_lint.Rule.file)
      in
      (* only the units of the linted roots: other builds that share
         _build (perfbench, scratch executables) must not move the
         counter *)
      let units =
        List.filter
          (fun (u : Insp_lint.Cmt_loader.unit_info) ->
            List.exists
              (Option.fold ~none:false ~some:under_roots)
              [ u.src; u.intf_src ])
          loaded.Insp_lint.Cmt_loader.units
      in
      (findings, List.length units)
    | exception Insp_lint.Cmt_loader.Cmt_error _ -> ([], 0)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let findings = List.length shallow + List.length deep in
  Printf.printf "%d finding(s) over %d compilation units in %.2f s\n%!"
    findings units wall_s;
  let recorder = Insp.Obs.create () in
  let m = recorder.Insp.Obs.metrics in
  Insp.Obs_metrics.incr ~by:findings m "lint.findings";
  Insp.Obs_metrics.incr ~by:units m "lint.units";
  ("lint.full_repo", wall_s, recorder)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let rec split_opt flag acc = function
    | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
    | a :: rest -> split_opt flag (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_file, args = split_opt "--json" [] args in
  let jobs_arg, args = split_opt "--jobs" [] args in
  let jobs =
    match jobs_arg with
    | None -> 1
    | Some v -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> j
      | Some _ | None ->
        prerr_endline "bench: --jobs must be a positive integer";
        exit 2)
  in
  let ids = List.filter (fun a -> a <> "--quick") args in
  let ids =
    if ids = [] then Insp.Suite.all_ids @ [ "catalog" ] else ids
  in
  let results = List.filter_map (run_experiment ~quick ~jobs) ids in
  let results =
    results
    @ [
        journal_overhead_entry ~quick ();
        serve_entry ~quick ();
        faults_repair_entry ~quick ();
        faults_frontier_entry ~quick ();
        lint_entry ~quick ();
        probe_throughput_entry ~quick ();
        scale_entry ~n:10_000 ~budget_s:1.0 "scale.10k" ();
        (* the alloc rows DO run under --quick (unlike scale.100k):
           minor words are deterministic, so the hard alloc gate
           belongs in the committed BENCH_insp.json *)
        (* 59.9M measured at the candidate-queue baseline; ~1.35x
           headroom, tightened as the commit path flattens *)
        alloc_entry ~n:100_000 ~budget_words:81_000_000.0 "alloc.100k" ();
        alloc_serve_entry ~quick ();
      ]
    (* the 100k row is capped out of --quick runs: it is the acceptance
       row for the candidate-queue refactor (< 1 s single-threaded),
       not a per-commit smoke check *)
    @ (if quick then []
       else [ scale_entry ~n:100_000 ~budget_s:1.0 "scale.100k" () ])
  in
  (match json_file with
  | Some file ->
    Insp.Obs_export.save file (bench_json ~quick results);
    Printf.printf "\nwrote %s\n%!" file
  | None -> ());
  if List.length ids > 1 then begin
    summarize_rankings ~quick ();
    run_ablations ~quick ()
  end;
  print_newline ()
