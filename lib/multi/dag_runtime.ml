module Runtime = Insp_sim.Runtime

let sustains_target = Runtime.sustains_target

let run ?window ?horizon ?warmup dag platform alloc =
  let n = Dag.n_nodes dag in
  let rho = (Dag.node dag 0).Dag.rate in
  for i = 0 to n - 1 do
    if Float.abs ((Dag.node dag i).Dag.rate -. rho) > 1e-9 then
      invalid_arg "Dag_runtime.run: mixed node rates are not supported"
  done;
  let graph =
    {
      Runtime.work = Array.init n (fun i -> (Dag.node dag i).Dag.work);
      output = Array.init n (fun i -> (Dag.node dag i).Dag.output);
      inputs =
        Array.init n (fun i ->
            Array.of_list
              (List.filter_map
                 (function Dag.Node j -> Some j | Dag.Object _ -> None)
                 (Dag.inputs dag i)));
      roots = Array.of_list (List.map fst (Dag.roots dag));
      rho;
      objects = Dag.objects dag;
    }
  in
  Runtime.run_graph ?window ?horizon ?warmup graph platform alloc
