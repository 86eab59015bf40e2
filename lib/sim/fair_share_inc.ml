module Union_find = Insp_util.Union_find

type kernel = [ `Full | `Incremental ]

type stats = {
  refreshes : int;
  components_recomputed : int;
  flows_recomputed : int;
  rounds : int;
  rebuilds : int;
}

type t = {
  kernel : kernel;
  (* Constraints, dense and never recycled: index order is the
     tie-break order, so it must be stable across the kernel's
     lifetime. *)
  mutable caps : float array;
  mutable n_caps : int;
  (* Flows, indexed by fid.  Slots are reused LIFO so the arrays stay
     sized by the number of concurrently active flows, not the total
     ever started. *)
  mutable membership : int list array;
  mutable flow_active : bool array;
  mutable rates : float array;
  mutable frozen : bool array;  (* water-fill scratch *)
  mutable n_slots : int;
  mutable free_fids : int list;
  mutable n_active : int;
  (* Reverse incidence: cid -> active fids crossing it. *)
  mutable flows_of : int list array;
  (* Component tracking over constraint indices ([`Incremental] only).
     Union-find cannot split, so after a removal it over-approximates
     the true components.  That is sound: water-filling a union of
     disconnected components yields the same rates as filling each
     alone (the projection argument below), so the stale structure only
     widens the recompute scope, never changes a rate.  Rebuilds are
     therefore amortized — every [rebuild_threshold] removals, not on
     each one — with [members] caching each root's component so a
     water-fill never scans the whole cid range. *)
  mutable uf : Union_find.t;
  mutable uf_capacity : int;
  mutable members : int list array;  (* root cid -> component cids *)
  mutable removals : int;  (* removals since the last rebuild *)
  mutable dirty : int list;  (* cids touched since the last refresh *)
  (* Water-fill scratch.  Flat, reused across refreshes and grown on
     demand: the hot path must not allocate, or the incremental kernel
     loses its constant-factor race against the full oracle's plain
     array scans (measured; see DESIGN.md §11). *)
  mutable remaining : float array;  (* by cid *)
  mutable unfrozen : int array;  (* by cid *)
  mutable wf_caps : int array;  (* component cids, flattened *)
  mutable wf_flows : int array;  (* component fids, any order *)
  mutable wf_round : int array;  (* fids frozen this round, ascending *)
  mutable wf_roots : int array;  (* deduped dirty roots *)
  mutable flow_mark : int array;  (* by fid: generation stamp *)
  mutable cap_mark : int array;  (* by cid: generation stamp *)
  mutable mark : int;
  mutable s_refreshes : int;
  mutable s_components : int;
  mutable s_flows : int;
  mutable s_rounds : int;
  mutable s_rebuilds : int;
}

let create ?(kernel = `Incremental) () =
  {
    kernel;
    caps = [||];
    n_caps = 0;
    membership = [||];
    flow_active = [||];
    rates = [||];
    frozen = [||];
    n_slots = 0;
    free_fids = [];
    n_active = 0;
    flows_of = [||];
    uf = Union_find.create 0;
    uf_capacity = 0;
    members = [||];
    removals = 0;
    dirty = [];
    remaining = [||];
    unfrozen = [||];
    wf_caps = [||];
    wf_flows = [||];
    wf_round = [||];
    wf_roots = [||];
    flow_mark = [||];
    cap_mark = [||];
    mark = 0;
    s_refreshes = 0;
    s_components = 0;
    s_flows = 0;
    s_rounds = 0;
    s_rebuilds = 0;
  }

let grown a n v =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max 8 (max n (2 * Array.length a))) v in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_constraint t cap =
  if cap < 0.0 then invalid_arg "Fair_share_inc.add_constraint: negative cap";
  let cid = t.n_caps in
  t.n_caps <- cid + 1;
  t.caps <- grown t.caps t.n_caps 0.0;
  t.caps.(cid) <- cap;
  t.flows_of <- grown t.flows_of t.n_caps [];
  t.flows_of.(cid) <- [];
  t.remaining <- grown t.remaining t.n_caps 0.0;
  t.unfrozen <- grown t.unfrozen t.n_caps 0;
  t.wf_caps <- grown t.wf_caps t.n_caps 0;
  t.wf_roots <- grown t.wf_roots t.n_caps 0;
  t.cap_mark <- grown t.cap_mark t.n_caps 0;
  (* In-capacity cids join the live union-find as singletons; an
     out-of-capacity cid forces a rebuild at the next refresh. *)
  if cid < t.uf_capacity then t.members.(cid) <- [ cid ];
  cid

let set_capacity t cid cap =
  if cid < 0 || cid >= t.n_caps then
    invalid_arg "Fair_share_inc.set_capacity: bad constraint index";
  if cap < 0.0 then invalid_arg "Fair_share_inc.set_capacity: negative cap";
  t.caps.(cid) <- cap;
  match t.kernel with
  | `Full -> ()
  | `Incremental ->
    (* The component's rates are stale until the next refresh, exactly
       like after an add/remove on one of its flows. *)
    t.dirty <- cid :: t.dirty

(* Merge two cids' components, folding the losing root's member list
   into the winner's so component membership stays O(1) to look up. *)
let union_members t a b =
  let ra = Union_find.find t.uf a and rb = Union_find.find t.uf b in
  if ra <> rb then begin
    let nr = Union_find.union t.uf ra rb in
    let loser = if nr = ra then rb else ra in
    t.members.(nr) <- List.rev_append t.members.(loser) t.members.(nr);
    t.members.(loser) <- []
  end

let add_flow t ms =
  if ms = [] then invalid_arg "Fair_share_inc.add_flow: flow with no constraint";
  List.iter
    (fun c ->
      if c < 0 || c >= t.n_caps then
        invalid_arg "Fair_share_inc.add_flow: bad constraint index")
    ms;
  let fid =
    match t.free_fids with
    | fid :: rest ->
      t.free_fids <- rest;
      fid
    | [] ->
      let fid = t.n_slots in
      t.n_slots <- fid + 1;
      t.membership <- grown t.membership t.n_slots [];
      t.flow_active <- grown t.flow_active t.n_slots false;
      t.rates <- grown t.rates t.n_slots 0.0;
      t.frozen <- grown t.frozen t.n_slots false;
      t.wf_flows <- grown t.wf_flows t.n_slots 0;
      t.wf_round <- grown t.wf_round t.n_slots 0;
      t.flow_mark <- grown t.flow_mark t.n_slots 0;
      fid
  in
  t.membership.(fid) <- ms;
  t.flow_active.(fid) <- true;
  t.rates.(fid) <- 0.0;
  t.n_active <- t.n_active + 1;
  List.iter (fun c -> t.flows_of.(c) <- fid :: t.flows_of.(c)) ms;
  (match t.kernel with
  | `Full -> ()
  | `Incremental ->
    t.dirty <- List.rev_append ms t.dirty;
    if t.uf_capacity >= t.n_caps then begin
      match ms with
      | c0 :: rest -> List.iter (fun c -> union_members t c0 c) rest
      | [] -> ()
    end);
  fid

let remove_flow t fid =
  if fid < 0 || fid >= t.n_slots || not t.flow_active.(fid) then
    invalid_arg "Fair_share_inc.remove_flow: inactive flow";
  let ms = t.membership.(fid) in
  List.iter
    (fun c -> t.flows_of.(c) <- List.filter (fun f -> f <> fid) t.flows_of.(c))
    ms;
  t.membership.(fid) <- [];
  t.flow_active.(fid) <- false;
  t.rates.(fid) <- 0.0;
  t.n_active <- t.n_active - 1;
  t.free_fids <- fid :: t.free_fids;
  match t.kernel with
  | `Full -> ()
  | `Incremental ->
    t.dirty <- List.rev_append ms t.dirty;
    t.removals <- t.removals + 1

(* A rebuild costs O(n_caps + active membership); spreading it over
   this many removals makes the amortized cost per removal O(1) while
   bounding how far the merged-only union-find can drift above the true
   components. *)
let rebuild_threshold t = max 16 (t.n_caps / 4)

let rebuild_components t =
  (* Headroom so constraints registered after the rebuild are still
     in-range singletons and don't force another rebuild by
     themselves. *)
  let capacity = max 8 (2 * t.n_caps) in
  t.uf <- Union_find.create capacity;
  t.uf_capacity <- capacity;
  t.members <- Array.make capacity [];
  for c = 0 to t.n_caps - 1 do
    t.members.(c) <- [ c ]
  done;
  t.removals <- 0;
  t.s_rebuilds <- t.s_rebuilds + 1;
  for fid = 0 to t.n_slots - 1 do
    if t.flow_active.(fid) then begin
      match t.membership.(fid) with
      | c0 :: rest -> List.iter (fun c -> union_members t c0 c) rest
      | [] -> ()
    end
  done

(* Water-fill one (possibly over-merged) component from scratch.

   The root's member set is allowed to cover SEVERAL true components:
   removals since the last rebuild cannot split the union-find, so the
   set is a union of components plus constraints whose flows all left.
   That never changes a rate — water-filling a disjoint union picks the
   global (share, cid)-minimum bottleneck each round, and projecting
   its rounds onto one true component gives exactly that component's
   own fill sequence; the parts only interleave, they never interact.
   Constraints with no unfrozen flows never win a round.

   Bit-equality with the [`Full] oracle rests on three properties that
   must not drift (test_sim's randomized suite pins them):
   - the bottleneck each round is the constraint with the smallest
     [remaining/unfrozen], ties to the LOWEST constraint index — the
     oracle scans cids in ascending order with strict [<]; the scan
     below visits the member list in arbitrary order but minimizes
     (share, cid) lexicographically, which picks the same winner;
   - flows freeze in ascending fid order ([wf_round] is sorted per
     round), so each constraint sees the same float subtractions;
   - shares clamp at 0 exactly like the oracle ([Float.max 0.0]).

   The rounds use the oracle's direct min-scan rather than a priority
   queue: components are small (tens of constraints in the paper's
   platforms), where a heap's per-push allocation and sift traffic
   costs more than rescanning a flat int/float array (measured ~2x;
   see DESIGN.md §11). *)
let waterfill_component t root =
  t.mark <- t.mark + 1;
  let mark = t.mark in
  let nc = ref 0 and nf = ref 0 in
  List.iter
    (fun c ->
      let n = ref 0 in
      List.iter
        (fun f ->
          incr n;
          if t.flow_mark.(f) <> mark then begin
            t.flow_mark.(f) <- mark;
            (* Order is irrelevant here: [wf_flows] only resets frozen
               flags; freeze order comes from [wf_round] below. *)
            t.wf_flows.(!nf) <- f;
            incr nf
          end)
        t.flows_of.(c);
      (* A constraint no active flow crosses cannot bottleneck anything:
         leave it out of the round scans entirely. *)
      if !n > 0 then begin
        t.wf_caps.(!nc) <- c;
        incr nc;
        t.remaining.(c) <- t.caps.(c);
        t.unfrozen.(c) <- !n
      end)
    t.members.(root);
  let nf = !nf in
  if nf > 0 then begin
    t.s_components <- t.s_components + 1;
    t.s_flows <- t.s_flows + nf;
    for i = 0 to nf - 1 do
      t.frozen.(t.wf_flows.(i)) <- false
    done;
    let live = ref !nc in
    let n_frozen = ref 0 in
    while !n_frozen < nf do
      t.s_rounds <- t.s_rounds + 1;
      let best_c = ref (-1) in
      let best_share = ref infinity in
      (* Scan the still-constraining caps, swap-dropping exhausted
         ones.  The (share, cid) lexicographic minimum is
         order-independent, so the compaction cannot change the
         winner. *)
      let i = ref 0 in
      while !i < !live do
        let c = t.wf_caps.(!i) in
        if t.unfrozen.(c) = 0 then begin
          decr live;
          t.wf_caps.(!i) <- t.wf_caps.(!live);
          t.wf_caps.(!live) <- c
        end
        else begin
          let share = t.remaining.(c) /. float_of_int t.unfrozen.(c) in
          if share < !best_share || (share = !best_share && c < !best_c)
          then begin
            best_share := share;
            best_c := c
          end;
          incr i
        end
      done;
      assert (!best_c >= 0);
      let share = Float.max 0.0 !best_share in
      let bc = !best_c in
      (* Freeze the unfrozen flows crossing [bc] — exactly the flows
         the oracle's whole-set scan would freeze this round — in
         ascending fid order, so each constraint sees the identical
         float subtraction sequence. *)
      let nb = ref 0 in
      List.iter
        (fun f ->
          if not t.frozen.(f) then begin
            let i = ref !nb in
            while !i > 0 && t.wf_round.(!i - 1) > f do
              t.wf_round.(!i) <- t.wf_round.(!i - 1);
              decr i
            done;
            t.wf_round.(!i) <- f;
            incr nb
          end)
        t.flows_of.(bc);
      for j = 0 to !nb - 1 do
        let f = t.wf_round.(j) in
        t.rates.(f) <- share;
        t.frozen.(f) <- true;
        incr n_frozen;
        List.iter
          (fun c ->
            t.remaining.(c) <- Float.max 0.0 (t.remaining.(c) -. share);
            t.unfrozen.(c) <- t.unfrozen.(c) - 1)
          t.membership.(f)
      done
    done
  end

let active_flows t =
  let fids = ref [] in
  for fid = t.n_slots - 1 downto 0 do
    if t.flow_active.(fid) then fids := fid :: !fids
  done;
  !fids

let refresh t =
  match t.kernel with
  | `Full ->
    t.s_refreshes <- t.s_refreshes + 1;
    if t.n_active > 0 then begin
      let fids = Array.of_list (active_flows t) in
      let membership = Array.map (fun fid -> t.membership.(fid)) fids in
      let caps = Array.sub t.caps 0 t.n_caps in
      let r = Fair_share.compute ~caps ~membership in
      Array.iteri (fun i fid -> t.rates.(fid) <- r.(i)) fids
    end
  | `Incremental ->
    if t.dirty <> [] then begin
      t.s_refreshes <- t.s_refreshes + 1;
      if t.uf_capacity < t.n_caps || t.removals >= rebuild_threshold t then
        rebuild_components t;
      (* Dedup dirty cids down to component roots with a generation
         mark — no allocation.  Fill order across roots is free to
         vary: distinct components share no constraint or flow, so
         their fills commute bit-for-bit. *)
      t.mark <- t.mark + 1;
      let m = t.mark in
      let nr = ref 0 in
      List.iter
        (fun c ->
          let r = Union_find.find t.uf c in
          if t.cap_mark.(r) <> m then begin
            t.cap_mark.(r) <- m;
            t.wf_roots.(!nr) <- r;
            incr nr
          end)
        t.dirty;
      t.dirty <- [];
      for i = 0 to !nr - 1 do
        waterfill_component t t.wf_roots.(i)
      done
    end

let check_active t fid who =
  if fid < 0 || fid >= t.n_slots || not t.flow_active.(fid) then
    invalid_arg ("Fair_share_inc." ^ who ^ ": inactive flow")

let rate t fid =
  check_active t fid "rate";
  t.rates.(fid)

let iter_active t f =
  for fid = 0 to t.n_slots - 1 do
    if t.flow_active.(fid) then f fid t.rates.(fid)
  done

let components t =
  (match t.kernel with
  | `Full -> invalid_arg "Fair_share_inc.components: full kernel"
  | `Incremental -> ());
  (* Any removal may have split a true component the merged-only
     union-find still shows fused, so reporting demands a rebuild. *)
  if t.uf_capacity < t.n_caps || t.removals > 0 then rebuild_components t;
  Union_find.groups t.uf
  |> List.filter_map (fun g ->
         let g = List.filter (fun c -> c < t.n_caps) g in
         if g = [] then None else Some g)

let stats t =
  {
    refreshes = t.s_refreshes;
    components_recomputed = t.s_components;
    flows_recomputed = t.s_flows;
    rounds = t.s_rounds;
    rebuilds = t.s_rebuilds;
  }
