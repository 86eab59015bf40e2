module App = Insp_tree.App
module Optree = Insp_tree.Optree
module Objects = Insp_tree.Objects
module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers
module Alloc = Insp_mapping.Alloc
module Heap = Insp_util.Heap
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type report = {
  sim_time : float;
  results_completed : int;
  achieved_throughput : float;
  target_throughput : float;
  proc_busy : float array;
  download_delivered : float;
  download_ideal : float;
  events : int;
  root_completions : float array;
}

(* The analytic model is fluid; the packetized simulation adds pipeline
   fill and scheduling granularity, so allow a 5% margin. *)
let sustains_target r =
  r.achieved_throughput >= 0.95 *. r.target_throughput

type graph = {
  work : float array;
  output : float array;
  inputs : int array array;
  roots : int array;
  rho : float;
  objects : Objects.t;
}

let graph_of_app app =
  let tree = App.tree app in
  let n = App.n_operators app in
  {
    work = Array.init n (App.work app);
    output = Array.init n (App.output_size app);
    inputs = Array.init n (fun i -> Array.of_list (Optree.children tree i));
    roots = [| Optree.root tree |];
    rho = App.rho app;
    objects = App.objects app;
  }

type endpoint = Proc of int | Server of int

type flow_kind =
  | Message of { slot : int }  (* a node's result towards one processor *)
  | Download of { proc : int; object_type : int }

type flow = {
  kind : flow_kind;
  src : endpoint;
  dst : int;  (* processor *)
  size : float;
  mutable remaining : float;
}

type scope =
  | Proc_card of int
  | Server_card of int
  | Proc_link of int * int  (* undirected: hits both flow directions *)
  | Server_link of int * int  (* (server, processor) *)

type disruption = {
  d_scope : scope;
  d_from : float;
  d_until : float;
  d_factor : float;  (* multiplier on the nominal capacity, >= 0 *)
}

type event =
  | Compute_done of { op : int; result : int }
  | Download_due of { proc : int; object_type : int; server : int }
  | Disrupt of { index : int; on : bool }

let epsilon = 1e-9

let run_impl ?window ?(horizon = 80.0) ?warmup ?(kernel = `Incremental)
    ?(disruptions = []) g platform alloc =
  (* The pipeline needs enough results in flight to cover its depth in
     processor hops, otherwise the work-ahead bound (not a resource)
     throttles throughput. *)
  let window =
    match window with
    | Some w -> w
    | None -> max 8 (2 * Alloc.n_procs alloc)
  in
  let warmup = match warmup with Some w -> w | None -> horizon /. 4.0 in
  if warmup >= horizon then invalid_arg "Runtime.run: warmup >= horizon";
  if Array.length g.roots = 0 then invalid_arg "Runtime.run: no root";
  let n_ops = Array.length g.work in
  let n_procs = Alloc.n_procs alloc in
  let proc_of = Array.make n_ops (-1) in
  for i = 0 to n_ops - 1 do
    match Alloc.assignment alloc i with
    | Some u -> proc_of.(i) <- u
    | None -> invalid_arg "Runtime.run: unassigned operator"
  done;
  (* The placement-dependent half of the view.  A node's result crosses
     to each remote processor hosting one of its consumers once, however
     many consumers live there, and every consumer on that processor
     reads the same arrival counter: one slot per (producer,
     destination).  [slots.(i).(k)] is the slot of [i]'s k-th input, or
     -1 when the producer is co-located; [dests.(j)] lists [j]'s
     (destination, slot) pairs in ascending destination order. *)
  let slots = Array.map (fun ins -> Array.make (Array.length ins) (-1)) g.inputs in
  let dests = Array.make n_ops [] in
  let slot_of = Hashtbl.create 16 in
  Array.iteri
    (fun i ins ->
      let v = proc_of.(i) in
      Array.iteri
        (fun k j ->
          if proc_of.(j) <> v then
            slots.(i).(k) <-
              (let key = (j * n_procs) + v in
               match Hashtbl.find_opt slot_of key with
               | Some s -> s
               | None ->
                 let s = Hashtbl.length slot_of in
                 Hashtbl.replace slot_of key s;
                 dests.(j) <- (v, s) :: dests.(j);
                 s))
        ins)
    g.inputs;
  let dests = Array.map (fun l -> Array.of_list (List.sort compare l)) dests in
  let speed u = (Alloc.proc alloc u).Alloc.config.Catalog.cpu.Catalog.speed in
  let nic u =
    (Alloc.proc alloc u).Alloc.config.Catalog.nic.Catalog.bandwidth
  in
  let servers = platform.Platform.servers in
  (* --- node pipeline state --- *)
  let completed = Array.make n_ops (-1) in
  let arrived = Array.make (Hashtbl.length slot_of) 0 in
  let computing = Array.make n_procs false in
  let busy_until_accum = Array.make n_procs 0.0 in
  let roots = g.roots in
  let n_roots = Array.length roots in
  let n_root_completions = Array.make n_roots 0 in
  let n_after_warmup = Array.make n_roots 0 in
  let root_times = Array.make n_roots [] in
  (* --- flows ---
     Both kernel variants drive the same persistent registry in
     [Fair_share_inc], so constraint indices (and therefore bottleneck
     tie-breaks) coincide and the two paths produce bit-identical
     rates. *)
  let fs = Fair_share_inc.create ~kernel () in
  (* --- capacity disruptions (fault injection) ---
     Each disruption multiplies the nominal capacity of every matching
     constraint by [d_factor] over [d_from, d_until).  With an empty
     list the whole machinery is inert: no heap events, no factor
     application, bit-identical trajectories. *)
  let disr = Array.of_list disruptions in
  let n_disr = Array.length disr in
  Array.iter
    (fun d ->
      if d.d_factor < 0.0 then
        invalid_arg "Runtime.run: negative disruption factor";
      if d.d_until < d.d_from then
        invalid_arg "Runtime.run: disruption ends before it starts")
    disr;
  let disr_active = Array.make (max 1 n_disr) false in
  let scope_matches scope key =
    match (scope, key) with
    | Proc_card u, `Proc_card v -> u = v
    | Server_card l, `Server_card m -> l = m
    | Proc_link (a, b), `Plink (u, v) -> (a = u && b = v) || (a = v && b = u)
    | Server_link (l, p), `Slink (m, q) -> l = m && p = q
    | _ -> false
  in
  let eff_factor key =
    let f = ref 1.0 in
    for i = 0 to n_disr - 1 do
      if disr_active.(i) && scope_matches disr.(i).d_scope key then
        f := !f *. disr.(i).d_factor
    done;
    !f
  in
  (* Constraints: proc cards (in+out), server cards, pair links.
     Registered once, on the first flow that crosses them.  With live
     disruptions the registration list is kept (in registration order,
     most recent first) so boundary events can re-derive every affected
     effective capacity from the nominal one — no drift from repeated
     multiply/divide. *)
  let cap_index = Hashtbl.create 16 in
  let registered = ref [] in
  let constraint_of key cap =
    match Hashtbl.find_opt cap_index key with
    | Some cid -> cid
    | None ->
      let eff = if n_disr = 0 then cap else cap *. eff_factor key in
      let cid = Fair_share_inc.add_constraint fs eff in
      Hashtbl.replace cap_index key cid;
      if n_disr > 0 then registered := (key, cap, cid) :: !registered;
      cid
  in
  (* fid -> flow payload; fids are slot-reused, so this stays sized by
     the concurrently active flows. *)
  let flow_by_fid = ref (Array.make 16 None) in
  let flow_at fid =
    match !flow_by_fid.(fid) with Some f -> f | None -> assert false
  in
  let events = Heap.create () in
  let n_events = ref 0 in
  let download_delivered = ref 0.0 in
  (* Hot-loop instrumentation goes through local refs and is flushed to
     the observability sink once per run, so the event loop never pays
     more than integer increments. *)
  let n_recomputes = ref 0 in
  let n_flows_started = ref 0 in
  let n_flows_completed = ref 0 in
  (* Rates are refreshed lazily: flow arrivals/departures only mark
     them dirty, and the water-filling kernel runs once per loop
     iteration that actually reads rates.  Bursts of same-instant
     events (periodic downloads firing together, completions cascading
     at one timestamp) then share a single recompute instead of paying
     one each — the dominant cost of a run (see DESIGN.md §11). *)
  let rates_dirty = ref false in
  (* Active flows with [remaining <= epsilon].  Only such flows can
     complete "now", so when the list is empty a heap event due at the
     current instant can be processed without consulting rates at all.
     Flows are recorded as they cross the threshold, so the completion
     branch needs no rescan of the active set. *)
  let tiny = ref (Array.make 16 0) in
  let n_tiny = ref 0 in
  let push_tiny fid =
    if !n_tiny >= Array.length !tiny then begin
      let b = Array.make (2 * Array.length !tiny) 0 in
      Array.blit !tiny 0 b 0 !n_tiny;
      tiny := b
    end;
    !tiny.(!n_tiny) <- fid;
    incr n_tiny
  in
  (* Scheduling events are journaled only when a journaling sink is
     installed; the flag is read once so the hot loop pays a single
     boolean test per candidate site.  The "sim" category is depth
     bounded (--journal-depth): only the opening of a run is recorded. *)
  let jn = Obs.journaling () in
  let now = ref 0.0 in
  let flow_labels f =
    ( (match f.kind with Message _ -> "msg" | Download _ -> "dl"),
      match f.src with
      | Proc u -> Printf.sprintf "p%d" u
      | Server l -> Printf.sprintf "s%d" l )
  in
  let start_flow f =
    incr n_flows_started;
    if jn then begin
      let kind, src = flow_labels f in
      Obs.event_bounded ~category:"sim"
        (Journal.Sim_flow_start
           { t = !now; kind; src; dst = f.dst; size = f.size })
    end;
    rates_dirty := true;
    let dst_card = constraint_of (`Proc_card f.dst) (nic f.dst) in
    let ms =
      match f.src with
      | Proc u ->
        let src_card = constraint_of (`Proc_card u) (nic u) in
        let link =
          constraint_of (`Plink (u, f.dst)) platform.Platform.proc_link
        in
        [ src_card; dst_card; link ]
      | Server l ->
        let src_card = constraint_of (`Server_card l) (Servers.card servers l) in
        let link =
          constraint_of (`Slink (l, f.dst)) platform.Platform.server_link
        in
        [ src_card; dst_card; link ]
    in
    let fid = Fair_share_inc.add_flow fs ms in
    if fid >= Array.length !flow_by_fid then begin
      let b = Array.make (max (fid + 1) (2 * Array.length !flow_by_fid)) None in
      Array.blit !flow_by_fid 0 b 0 (Array.length !flow_by_fid);
      flow_by_fid := b
    end;
    !flow_by_fid.(fid) <- Some f;
    if f.remaining <= epsilon then push_tiny fid
  in
  let recompute_rates () =
    incr n_recomputes;
    Fair_share_inc.refresh fs
  in
  (* --- pipeline readiness --- *)
  (* The work-ahead window is measured from the slowest application. *)
  let slowest_root () =
    let m = ref completed.(roots.(0)) in
    for r = 1 to n_roots - 1 do
      m := Int.min !m completed.(roots.(r))
    done;
    !m
  in
  (* Result [t] of every input from index [k] on is available. *)
  let rec inputs_ready ins sl t k =
    k >= Array.length ins
    || (if sl.(k) < 0 then completed.(ins.(k)) >= t else arrived.(sl.(k)) > t)
       && inputs_ready ins sl t (k + 1)
  in
  (* [limit] is the highest result the work-ahead window admits. *)
  let ready limit op =
    let t = completed.(op) + 1 in
    t <= limit && inputs_ready g.inputs.(op) slots.(op) t 0
  in
  let dispatch () =
    (* Start an evaluation on every idle processor that has a ready
       operator (lowest pending result first, then operator id).
       Starting one completes nothing, so the window holds still. *)
    let limit = slowest_root () + window in
    for u = 0 to n_procs - 1 do
      if not computing.(u) then begin
        let best = ref None in
        List.iter
          (fun op ->
            if ready limit op then
              match !best with
              | Some b
                when completed.(b) < completed.(op)
                     || (completed.(b) = completed.(op) && b <= op) -> ()
              | _ -> best := Some op)
          (Alloc.operators_of alloc u);
        match !best with
        | None -> ()
        | Some op ->
          computing.(u) <- true;
          if jn then
            Obs.event_bounded ~category:"sim"
              (Journal.Sim_dispatch
                 { t = !now; proc = u; op; result = completed.(op) + 1 });
          let duration = g.work.(op) /. speed u in
          busy_until_accum.(u) <- busy_until_accum.(u) +. duration;
          Heap.push events (!now +. duration)
            (Compute_done { op; result = completed.(op) + 1 })
      end
    done
  in
  let finish_compute op result =
    completed.(op) <- result;
    computing.(proc_of.(op)) <- false;
    for r = 0 to n_roots - 1 do
      if roots.(r) = op then begin
        n_root_completions.(r) <- n_root_completions.(r) + 1;
        root_times.(r) <- !now :: root_times.(r);
        if !now >= warmup then n_after_warmup.(r) <- n_after_warmup.(r) + 1
      end
    done;
    let ds = dests.(op) in
    for d = 0 to Array.length ds - 1 do
      let v, slot = ds.(d) in
      let size = g.output.(op) in
      start_flow
        {
          kind = Message { slot };
          src = Proc proc_of.(op);
          dst = v;
          size;
          remaining = size;
        }
    done
  in
  (* Set when a finished Message flow bumped an arrival count — the
     only way a flow completion can make an operator ready.  Download
     completions leave readiness untouched, so an all-download batch
     can skip the dispatch scan: every readiness mutation elsewhere is
     already followed by its own [dispatch ()], meaning the scan would
     find nothing to start. *)
  let arrival_bumped = ref false in
  let finish_flow fid =
    let f = flow_at fid in
    (match f.kind with
    | Message { slot } ->
      arrived.(slot) <- arrived.(slot) + 1;
      arrival_bumped := true
    | Download _ -> ());
    incr n_flows_completed;
    if jn then begin
      let kind, src = flow_labels f in
      Obs.event_bounded ~category:"sim"
        (Journal.Sim_flow_done { t = !now; kind; src; dst = f.dst })
    end;
    !flow_by_fid.(fid) <- None;
    rates_dirty := true;
    Fair_share_inc.remove_flow fs fid
  in
  (* Seed periodic downloads. *)
  List.iter
    (fun (u, k, l) ->
      Heap.push events 0.0 (Download_due { proc = u; object_type = k; server = l }))
    (Alloc.all_downloads alloc);
  dispatch ();
  let handle_event = function
    | Compute_done { op; result } ->
      finish_compute op result;
      dispatch ()
    | Download_due { proc; object_type; server } ->
      let size = Objects.size g.objects object_type in
      let freq = Objects.freq g.objects object_type in
      start_flow
        {
          kind = Download { proc; object_type };
          src = Server server;
          dst = proc;
          size;
          remaining = size;
        };
      Heap.push events (!now +. (1.0 /. freq))
        (Download_due { proc; object_type; server })
      (* No dispatch: starting a download cannot make an operator
         ready, so the scan would be a guaranteed no-op. *)
    | Disrupt { index; on } ->
      (* Toggle the window and re-derive every matching constraint's
         effective capacity from its nominal value.  Marking rates
         dirty is enough: the slow path refreshes (and invalidates the
         completion-time cache) before any rate is read again. *)
      disr_active.(index) <- on;
      List.iter
        (fun (key, nominal, cid) ->
          if scope_matches disr.(index).d_scope key then
            Fair_share_inc.set_capacity fs cid (nominal *. eff_factor key))
        !registered;
      rates_dirty := true
  in
  (* Schedule disruption boundaries.  Windows opening at or past the
     horizon never fire; a close past the horizon is simply never
     processed. *)
  for i = 0 to n_disr - 1 do
    if disr.(i).d_from < horizon then begin
      Heap.push events disr.(i).d_from (Disrupt { index = i; on = true });
      Heap.push events disr.(i).d_until (Disrupt { index = i; on = false })
    end
  done;
  (* --- main loop --- *)
  let t_flow_cache = ref infinity in
  let t_flow_valid = ref false in
  let continue_ = ref true in
  while !continue_ do
    let t_heap = match Heap.peek events with Some (t, _) -> t | None -> infinity in
    if t_heap <= !now && !now < horizon && !n_tiny = 0 then begin
      (* Fast path: a heap event is due at the current instant and no
         flow can complete before it (a completion "now" requires an
         active flow with [remaining <= epsilon], and there is none).
         Time does not advance, so no rate is read — process the event
         without refreshing.  This collapses a burst of same-instant
         events into a single deferred recompute at the next real read,
         with bit-identical trajectories: the slow path below would
         take its heap branch with dt = 0 for each of them anyway. *)
      incr n_events;
      match Heap.pop events with
      | None -> assert false (* t_heap is finite, so the heap is non-empty *)
      | Some (_, ev) -> handle_event ev
    end
    else begin
      if !rates_dirty then begin
        rates_dirty := false;
        recompute_rates ();
        (* Rates moved under the cached prediction's feet. *)
        t_flow_valid := false
      end;
      (* Next flow completion.  [now +. (remaining /. r)] depends only
         on each flow's rate and residual size, both unchanged since
         the advance pass that cached it (any start/finish or refresh
         cleared the flag), so reuse is bit-exact and the scan is
         skipped on iterations whose rates stayed clean. *)
      let t_flow =
        if !t_flow_valid then !t_flow_cache
        else begin
          let tf = ref infinity in
          Fair_share_inc.iter_active fs (fun fid r ->
              if r > epsilon then begin
                let f = flow_at fid in
                tf := Float.min !tf (!now +. (f.remaining /. r))
              end);
          !tf
        end
      in
      let t_next = Float.min horizon (Float.min t_heap t_flow) in
      (* Advance all flows to t_next, predicting the next completion
         time as a side product: with [now] about to become [t_next],
         the candidate below is the same float expression the scan
         above would evaluate next iteration. *)
      let dt = t_next -. !now in
      if dt > 0.0 then begin
        let tf = ref infinity in
        Fair_share_inc.iter_active fs (fun fid r ->
            let f = flow_at fid in
            let before = f.remaining in
            let moved = Float.min f.remaining (r *. dt) in
            f.remaining <- f.remaining -. moved;
            if before > epsilon && f.remaining <= epsilon then push_tiny fid;
            if r > epsilon then
              tf := Float.min !tf (t_next +. (f.remaining /. r));
            match f.kind with
            | Download _ -> download_delivered := !download_delivered +. moved
            | Message _ -> ());
        t_flow_cache := !tf;
        t_flow_valid := true
      end;
      now := t_next;
      if t_next >= horizon then continue_ := false
      else if t_flow <= t_heap then begin
        (* One or more flows completed.  The tiny list holds exactly
           the active flows with [remaining <= epsilon] (a flow crosses
           the threshold once and is only ever removed here), so no
           rescan is needed — just finish them in ascending fid order,
           the order the scan this replaces used to yield. *)
        incr n_events;
        let k = !n_tiny in
        let a = !tiny in
        for i = 1 to k - 1 do
          let v = a.(i) in
          let j = ref i in
          while !j > 0 && a.(!j - 1) > v do
            a.(!j) <- a.(!j - 1);
            decr j
          done;
          a.(!j) <- v
        done;
        n_tiny := 0;
        arrival_bumped := false;
        for i = 0 to k - 1 do
          finish_flow a.(i)
        done;
        if !arrival_bumped then dispatch ()
      end
      else begin
        incr n_events;
        match Heap.pop events with
        | None -> continue_ := false
        | Some (_, ev) -> handle_event ev
      end
    end
  done;
  (* --- measurement --- *)
  (* Every application must keep up, so the slowest sink is the
     deployment's throughput. *)
  let achieved =
    Array.fold_left
      (fun acc n -> Float.min acc (float_of_int n /. (horizon -. warmup)))
      infinity n_after_warmup
  in
  let ideal =
    List.fold_left
      (fun acc (_, k, _) -> acc +. (Objects.rate g.objects k *. horizon))
      0.0
      (Alloc.all_downloads alloc)
  in
  let root_completions =
    Array.of_list (Array.fold_left (fun acc l -> List.rev_append l acc) [] root_times)
  in
  Array.sort Float.compare root_completions;
  let report =
    {
      sim_time = horizon;
      results_completed = Array.fold_left Int.min max_int n_root_completions;
      achieved_throughput = achieved;
      target_throughput = g.rho;
      proc_busy =
        Array.map (fun b -> Float.min 1.0 (b /. horizon)) busy_until_accum;
      download_delivered = !download_delivered;
      download_ideal = ideal;
      events = !n_events;
      root_completions;
    }
  in
  Obs.add "sim.event" !n_events;
  Obs.add "sim.rate_recompute" !n_recomputes;
  Obs.add "sim.flow.started" !n_flows_started;
  Obs.add "sim.flow.completed" !n_flows_completed;
  Obs.add "sim.result" report.results_completed;
  (match kernel with
  | `Incremental ->
    let ks = Fair_share_inc.stats fs in
    Obs.add "sim.component.recompute" ks.Fair_share_inc.components_recomputed;
    Obs.add "sim.component.flow" ks.Fair_share_inc.flows_recomputed;
    Obs.add "sim.component.round" ks.Fair_share_inc.rounds;
    Obs.add "sim.component.rebuild" ks.Fair_share_inc.rebuilds
  | `Full -> ());
  Obs.gauge "sim.throughput.achieved" report.achieved_throughput;
  let busy = report.proc_busy in
  if Array.length busy > 0 then begin
    Obs.gauge "sim.busy.max" (Array.fold_left Float.max 0.0 busy);
    Obs.gauge "sim.busy.mean"
      (Array.fold_left ( +. ) 0.0 busy /. float_of_int (Array.length busy))
  end;
  report

let run_graph ?window ?horizon ?warmup g platform alloc =
  Obs.span "sim.run" (fun () ->
      run_impl ?window ?horizon ?warmup g platform alloc)

let run ?window ?horizon ?warmup ?kernel ?disruptions app platform alloc =
  Obs.span "sim.run" (fun () ->
      run_impl ?window ?horizon ?warmup ?kernel ?disruptions (graph_of_app app)
        platform alloc)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>simulated %.1f s, %d events@ root results: %d (%.3f/s vs target \
     %.3f/s)@ downloads: %.0f / %.0f MB delivered@ busy: [%s]@]"
    r.sim_time r.events r.results_completed r.achieved_throughput
    r.target_throughput r.download_delivered r.download_ideal
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.2f") r.proc_busy)))
