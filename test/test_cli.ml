(* Tests for the command-line front end's input boundary: it runs the
   built bin/insp_cli.exe and checks exit codes and where exports go. *)

let cli = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "insp_cli.exe"

(* Runs the front end with [args] inside [dir], returning its exit code
   and its stdout. *)
let run ?(dir = Filename.get_temp_dir_name ()) args =
  let cli =
    if Filename.is_relative cli then Filename.concat (Sys.getcwd ()) cli else cli
  in
  let out = Filename.temp_file "insp_cli" ".out" in
  let command =
    Printf.sprintf "cd %s && %s" (Filename.quote dir)
      (Filename.quote_command cli args ~stdout:out ~stderr:Filename.null)
  in
  let code = Sys.command command in
  let stdout = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, stdout)

(* cmdliner's documented exit code for a command-line parse error. *)
let cli_error = 124

let test_rejects_out_of_range () =
  List.iter
    (fun args ->
      let code, _ = run args in
      Alcotest.(check int) (String.concat " " args) cli_error code)
    [
      [ "solve"; "-n"; "0" ];
      [ "simulate"; "-n"; "0" ];
      [ "faults"; "-n"; "0" ];
      [ "multi"; "--apps"; "0" ];
      [ "serve"; "--tenants"; "0" ];
      [ "serve"; "--proc-budget"; "0" ];
      [ "serve"; "--card-scale"; "0" ];
      [ "serve"; "--card-scale"; "nan" ];
      [ "solve"; "-a"; "nan" ];
      [ "solve"; "-a"; "0" ];
    ]

let test_dash_is_stdout () =
  let dir = Filename.temp_dir "insp_cli" "" in
  let code, stdout =
    run ~dir [ "solve"; "-n"; "20"; "-H"; "comp"; "--metrics"; "-" ]
  in
  let stray = Sys.file_exists (Filename.concat dir "-") in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "no file named -" false stray;
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "metrics CSV on stdout" true
    (contains stdout "heur.")

let () =
  Alcotest.run "cli"
    [
      ( "input",
        [
          Alcotest.test_case "out-of-range values exit 124" `Quick
            test_rejects_out_of_range;
          Alcotest.test_case "--metrics - writes stdout" `Quick
            test_dash_is_stdout;
        ] );
    ]
