(* Tests of the benchmark's own code: order statistics, the tail
   percentile rule, the host-speed kernel helper, and a tiny-size run
   of every workload that must emit exactly the metrics BENCHMARK.json
   declares. *)

open Perfbench

let feq = Alcotest.float 1e-9

let test_quantile () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.check feq "median" 3.0 (Pct.median xs);
  Alcotest.check feq "q1" 2.0 (Pct.quantile xs 0.25);
  Alcotest.check feq "q3" 4.0 (Pct.quantile xs 0.75);
  Alcotest.check feq "min" 1.0 (Pct.quantile xs 0.0);
  Alcotest.check feq "max" 5.0 (Pct.quantile xs 1.0);
  Alcotest.check feq "interpolated" 2.5 (Pct.median [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.check feq "single sample" 7.0 (Pct.quantile [ 7.0 ] 0.9)

let pm = Alcotest.(option int)

let test_tail_boundaries () =
  Alcotest.check pm "1 sample" None (Pct.tail_permille 1);
  Alcotest.check pm "19 samples" None (Pct.tail_permille 19);
  Alcotest.check pm "20 samples: p50" (Some 500) (Pct.tail_permille 20);
  Alcotest.check pm "99 samples: p50" (Some 500) (Pct.tail_permille 99);
  Alcotest.check pm "100 samples: p90" (Some 900) (Pct.tail_permille 100);
  Alcotest.check pm "999 samples: p90" (Some 900) (Pct.tail_permille 999);
  Alcotest.check pm "1000 samples: p99" (Some 990) (Pct.tail_permille 1000);
  Alcotest.check pm "capped at p99" (Some 990) (Pct.tail_permille 1_000_000)

(* The chosen percentile has at least ten samples beyond it and no
   higher rung of the ladder does. *)
let test_tail_rule () =
  let beyond n pm = n * (1000 - pm) / 1000 in
  for n = 1 to 3000 do
    match Pct.tail_permille n with
    | None ->
      List.iter
        (fun pm ->
          Alcotest.(check bool) "none qualifies" true (beyond n pm < 10))
        Pct.ladder
    | Some chosen ->
      Alcotest.(check bool) "ten beyond" true (beyond n chosen >= 10);
      List.iter
        (fun pm ->
          if pm > chosen then
            Alcotest.(check bool) "higher rung fails" true (beyond n pm < 10))
        Pct.ladder
  done

let test_tail_values () =
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let chosen, v = Pct.tail xs in
  Alcotest.(check int) "p99 at 1000 samples" 990 chosen;
  Alcotest.check feq "p99 value" 990.01 v;
  let chosen, v = Pct.tail [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check int) "median stands in" 500 chosen;
  Alcotest.check feq "median value" 2.0 v

(* The kernel helper answers, [scaled] passes its function's result
   through, and [stop] reaps the helper, which a later timing restarts. *)
let test_speed () =
  List.iter
    (fun kernel ->
      let k = Speed.kernel_s kernel in
      Alcotest.(check bool) "kernel time positive" true (k > 0.0 && k < 60.0))
    [ Speed.Small; Speed.Large ];
  let r, factor = Speed.scaled ~kernel:Speed.Small (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 r;
  Alcotest.(check bool) "factor positive" true
    (Float.is_finite factor && factor > 0.0);
  let pid =
    match !Speed.running with
    | Some h -> h.Speed.pid
    | None -> Alcotest.fail "no helper running"
  in
  Speed.stop ();
  Alcotest.(check bool) "helper reaped" true
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true);
  Speed.stop ();
  Alcotest.(check bool) "restarts" true (Speed.kernel_s Speed.Small > 0.0)

(* (name, unit) pairs of one metric list of BENCHMARK.json. *)
let declared key =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let start =
    Str.search_forward (Str.regexp_string ("\"" ^ key ^ "\"")) text 0
  in
  let stop = String.index_from text start ']' in
  let section = String.sub text start (stop - start) in
  let entry =
    Str.regexp
      "\"name\" *: *\"\\([^\"]*\\)\" *, *\"unit\" *: *\"\\([^\"]*\\)\""
  in
  let rec collect pos acc =
    match Str.search_forward entry section pos with
    | i ->
      let pair = (Str.matched_group 1 section, Str.matched_group 2 section) in
      collect (i + 1) (pair :: acc)
    | exception Not_found -> List.rev acc
  in
  collect 0 []

let smoke workload ~trace () =
  let r =
    Workloads.run ~size:Workloads.Tiny ~workload ~seed:3 ~seconds:0.0 ~trace ()
  in
  Alcotest.(check bool) "outputs checked correct" true r.correct;
  Alcotest.(check int) "no failed operation" 0 r.failed;
  Alcotest.(check bool) "attempted" true (r.attempted >= 1);
  List.iter
    (fun (name, v, unit_) ->
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v);
      Alcotest.(check bool) (name ^ " has a unit") true (unit_ <> ""))
    r.metrics;
  let emitted = List.map (fun (name, _, unit_) -> (name, unit_)) r.metrics in
  Alcotest.(check (list (pair string string)))
    "emits exactly the declared metrics"
    (declared (if trace then "per_layer" else "end_to_end"))
    emitted

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "tail boundaries" `Quick test_tail_boundaries;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "tail values" `Quick test_tail_values;
        ] );
      ("speed", [ Alcotest.test_case "kernel helper" `Quick test_speed ]);
      ( "smoke",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " end-to-end") `Quick
                (smoke w ~trace:false);
              Alcotest.test_case (w ^ " per-layer") `Quick
                (smoke w ~trace:true);
            ])
          Workloads.all );
    ]
