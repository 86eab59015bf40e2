(* Command-line entry point of the repository benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a short human-readable summary, then, as the last line of
   standard output, one JSON object with the keys correct, attempted,
   failed and metrics: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1. *)

let json_number v = Printf.sprintf "%.17g" v

let print_result (r : Perfbench.Workloads.result) =
  Printf.printf "%d rounds, median latency per round (ms):%s\n"
    (List.length r.round_p50_ms)
    (String.concat "" (List.map (Printf.sprintf " %.4f") r.round_p50_ms));
  Printf.printf "host speed per round (reference kernel time / kernel time):%s\n"
    (String.concat "" (List.map (Printf.sprintf " %.3f") r.round_speed));
  List.iter
    (fun (name, v, unit_) -> Printf.printf "  %-30s %16.6f %s\n" name v unit_)
    r.metrics;
  let metrics =
    List.map
      (fun (name, v, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit_)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  " ^ String.concat " | " Perfbench.Workloads.all );
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ( "--trace",
        Arg.Set_int trace,
        "0|1  end-to-end (0) or per-layer (1) run" );
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Perfbench.Workloads.all) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if Float.is_nan !seconds || !seconds < 0.0 then begin
    prerr_endline "--seconds must be a non-negative number";
    exit 2
  end;
  Printf.printf "workload %s, seed %d, %.0f s, trace %d\n%!" !workload !seed
    !seconds !trace;
  let r =
    Perfbench.Workloads.run ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1) ()
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics in
  if not finite then begin
    prerr_endline "a metric is not finite";
    exit 1
  end;
  print_result r;
  if not r.correct then exit 1
