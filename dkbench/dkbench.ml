(* dkbench: end-to-end benchmark of dkindex-server.

     dkbench --server EXE --workload NAME --seed N --seconds S --trace 0|1

   Runs the server as a child process, loads it over TCP, checks every
   answer against Query_eval on an in-process copy of the pinned
   dataset, and prints one JSON object as the last stdout line.  With
   --trace 0 it reports the end-to-end metrics; with --trace 1 it
   measures the same load untraced then traced (a server of its own
   for each), replays the requests
   in-process through each layer's public functions as spans, and
   reports the per-layer metrics.  Scratch files live under
   dkbench/_run/ (relative to the working directory). *)

open Dkindex_core
module Wire = Dkindex_server.Wire
module Obuf = Dkindex_server.Obuf
module Wal = Dkindex_server.Wal
module Checkpoint = Dkindex_server.Checkpoint
module Dataset = Dkindex_server.Dataset
module Planner = Dkindex_planner.Planner
module Plan = Dkindex_planner.Plan
module Path_parser = Dkindex_pathexpr.Path_parser
module Prng = Dkindex_datagen.Prng
module Label = Dkindex_graph.Label
module Data_graph = Dkindex_graph.Data_graph

(* ------------------------------------------------------------------ *)
(* Workloads *)

type kind = Write of float (* writes/s *) | Recover

type workload = { name : string; scale : int; kind : kind }

(* An add costs 20-60 ms of mutator time and a remove 1-17 ms, so at
   5 writes/s the mutator stays under a third busy when the host runs
   at half speed.  At 10 writes/s a slowed host brought it near
   saturation, and write latency grew fivefold between runs of the same
   code. *)
let workloads =
  [
    { name = "write-s2000"; scale = 2000; kind = Write 5.0 };
    { name = "recover-s2000"; scale = 2000; kind = Recover };
  ]

(* Set-up runs this many times per run (once in traced runs), and its
   median is reported. *)
let setups = 3

(* Warm-up load before timing, so validation caches and lazily built
   tables are filled. *)
let warmup_s = 1.0

(* ------------------------------------------------------------------ *)
(* Run context *)

type ctx = {
  wl : workload;
  seed : int;
  seconds : float;
  server_exe : string;
  dir : string;  (* this workload's scratch directory *)
  gc : Gcwatch.t option;  (* traced runs only *)
  ds : Dataset.t;
  queries : Inputs.query array;
  base : int array array;  (* reference answers on the base state *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable first_wrong : string option;
}

let note_wrong ctx msg =
  ctx.wrong <- ctx.wrong + 1;
  if ctx.first_wrong = None then ctx.first_wrong <- Some msg

(* Compare a reply with a reference answer; a refusal is a failure,
   not a wrong answer. *)
let check ctx expected q msg =
  match Inputs.reply_nodes msg with
  | Some nodes -> if nodes <> expected.(q) then note_wrong ctx (Printf.sprintf "query %d: wrong answer" q)
  | None -> ctx.failed <- ctx.failed + 1

let account ctx (o : Load.outcome) =
  ctx.attempted <- ctx.attempted + o.reads + o.writes;
  ctx.failed <- ctx.failed + o.read_fail + o.write_fail;
  Option.iter (fun e -> prerr_endline ("dkbench: load ended early: " ^ e)) o.error

(* A traced run measures in two phases of half the time, each against
   a server of its own: the first untraced, the second traced.  Only a
   traced server writes a runtime_events ring, only its ring is polled,
   and only its replies are recorded as client spans, so traced minus
   untraced is what tracing costs. *)
let phases ctx =
  if ctx.gc = None then [ (ctx.seconds, false) ] else [ (ctx.seconds /. 2.0, false); (ctx.seconds /. 2.0, true) ]

let tick ctx ~traced = match ctx.gc with Some g when traced -> Gcwatch.tick g | _ -> ignore

let data_dir ctx = Filename.concat ctx.dir "data"

let spawn ctx ~traced ~data =
  let env =
    match ctx.gc with
    | Some g when traced -> [ "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ g.Gcwatch.dir ]
    | _ -> []
  in
  Proc.spawn ~exe:ctx.server_exe
    ~args:[ "--xmark"; string_of_int ctx.wl.scale; "--data-dir"; data; "--sync"; "interval" ]
    ~env ~log:(Filename.concat ctx.dir "server.log")

let watch_gc ctx (srv : Proc.server) = Option.iter (fun g -> Gcwatch.attach g srv.pid) ctx.gc

(* A killed traced server leaves its ring file behind. *)
let kill ctx (srv : Proc.server) =
  Proc.kill srv;
  Option.iter (fun g -> Gcwatch.detach g srv.pid) ctx.gc

(* Connect as soon as the server accepts and ask [probe], checking the
   answer; returns the connection and the snapshot generation the
   answer came from. *)
let first_answer ctx (srv : Proc.server) ~probe ~expected =
  let c =
    Conn.dial ~port:srv.port
      ~alive:(fun () -> Proc.alive srv.pid)
      ~deadline:(Unix.gettimeofday () +. 120.0)
  in
  ctx.attempted <- ctx.attempted + 1;
  let reply = Conn.call c (Inputs.request ctx.queries.(probe)) in
  check ctx expected probe reply;
  (c, Inputs.reply_generation reply)

(* One query per element of [qs] on [c], each checked against
   [expected]; [f q sent replied] sees every answered one.  A transport
   failure counts as failed and ends the sweep (the stream is out of
   step after a timeout). *)
let sweep ctx ~tick c expected qs f =
  try
    Array.iter
      (fun q ->
        ctx.attempted <- ctx.attempted + 1;
        let t = Stat.now () in
        let reply = Conn.call c (Inputs.request ctx.queries.(q)) in
        let t' = Stat.now () in
        tick t';
        check ctx expected q reply;
        if Inputs.reply_nodes reply <> None then f q t t')
      qs
  with (Unix.Unix_error _ | Failure _) as e ->
    ctx.failed <- ctx.failed + 1;
    prerr_endline ("dkbench: sweep ended early: " ^ Printexc.to_string e)

(* How many set-ups a run makes. *)
let n_setups ctx = if ctx.gc = None then setups else 1

(* Spawn to first correct answer on a fresh data directory, [n_setups]
   times; the last server is kept.  Returns it, its connection, the
   probe's generation and the set-up samples in seconds. *)
let setup ctx ~traced =
  let rec go acc =
    Proc.rm_rf (data_dir ctx);
    let t0 = Stat.now () in
    let srv = spawn ctx ~traced ~data:(data_dir ctx) in
    let c, gen = first_answer ctx srv ~probe:0 ~expected:ctx.base in
    let acc = (Stat.now () -. t0) :: acc in
    if List.length acc = n_setups ctx then begin
      if traced then watch_gc ctx srv;
      (srv, c, gen, acc)
    end
    else begin
      Conn.close c;
      kill ctx srv;
      go acc
    end
  in
  go []

(* Probe the server's data graph directly: [edges] paired with whether
   each must be present.  Catches a lost or extra write that no query
   answer happens to depend on. *)
let check_edges ctx c edges =
  try
    List.iter
      (fun ((u, v), want) ->
        ctx.attempted <- ctx.attempted + 1;
        match Conn.call c (Wire.Has_edge { u; v }) with
        | Wire.Edge_reply { present; _ } ->
          if present <> want then note_wrong ctx (Printf.sprintf "edge %d->%d present=%b" u v present)
        | _ -> ctx.failed <- ctx.failed + 1)
      edges
  with (Unix.Unix_error _ | Failure _) as e ->
    ctx.failed <- ctx.failed + 1;
    prerr_endline ("dkbench: edge probe ended early: " ^ Printexc.to_string e)

(* The edges a mutation sequence leaves present or absent. *)
let edge_state muts =
  let st = Hashtbl.create 64 in
  List.iter
    (function
      | Wal.Add_edge { u; v } -> Hashtbl.replace st (u, v) true
      | Wal.Remove_edge { u; v } -> Hashtbl.replace st (u, v) false
      | _ -> ())
    muts;
  Hashtbl.fold (fun e want acc -> (e, want) :: acc) st []

let reader ctx c = Load.reader c (Inputs.picker ~seed:ctx.seed (Array.length ctx.queries))

(* ------------------------------------------------------------------ *)
(* Results *)

type e2e = {
  setup : float list;  (* seconds *)
  n_rtt : int;  (* query round trips measured *)
  q_p50_us : float;
  q_p99_us : float;
  rps : float;
  op_name : string;  (* what op_* measure on this workload *)
  n_op : int;
  op_p50_ms : float;
  op_tail_ms : float;
  op_tail_pct : float;
  rss_mb : float;
  disk_mb : float;
  late_ms : Stat.buf;
}

(* What a traced run collects besides the replay. *)
type traced = {
  untraced_rtt : Stat.buf;
  traced_rtt : Stat.buf;
  client : Trace.t;  (* client spans of the traced phase *)
  stats0 : (string * string) list;  (* Stats around the untraced phase *)
  stats1 : (string * string) list;
  late : Stat.buf;
  invalidate_every : int;  (* served reads per validation-cache reset; 0: never *)
}

let mib b = float_of_int b /. (1024.0 *. 1024.0)

(* Figures computed per window of a run (or per sweep, or per group of
   writes) are summed up by their quartile on the good side: the first
   quartile of latencies, the third of rates.  The host's speed swings
   by up to 1.5x in phases of 10-30 s; a median over windows lands in
   whichever phase held more than half of the run and jumps between
   runs, while the good quartile moves only when three quarters of the
   run were slow. *)
let good_latency xs = Stat.percentile_of xs 25.0
let good_rate xs = Stat.percentile_of xs 75.0

(* Each window's p50, p99 and rate, summed up over the load's windows.
   A window without replies counts as rate 0 and has no percentiles. *)
let windowed (o : Load.outcome) =
  let ws = Array.to_list o.windows in
  let over f = List.map f (List.filter (fun b -> Stat.count b > 0) ws) in
  let p50s = over Stat.median and p99s = over (fun b -> Stat.percentile b 99.0) in
  let rates = List.map (fun b -> float_of_int (Stat.count b) /. Load.window_s) ws in
  (good_latency p50s, good_latency p99s, good_rate rates)

(* One measured phase against its own server. *)
type phase = {
  out : Load.outcome;
  setup_samples : float list;
  st0 : (string * string) list;  (* Stats before and after the measured load *)
  st1 : (string * string) list;
  rss : float;  (* median of one sample per second of the measured load *)
  disk : int;
}

let last l = List.nth l (List.length l - 1)

(* ------------------------------------------------------------------ *)
(* write-s2000 *)

(* Replies seen while writes land are checked afterwards, against the
   state their snapshot generation implies: the k-th published swap
   after [gen0] is the k-th acknowledged write. *)
let check_reads_during_writes ctx ~gen0 ~ok_writes reads =
  let idx = ctx.ds.index in
  let name = Data_graph.label_name (Index_graph.data idx) in
  (* An added edge u->v can change a label path's answer only if the
     path has u's label directly followed by v's; other queries keep
     their base answer, and only the rest are evaluated again. *)
  let crosses labels (u, v) () acc =
    let lu = name u and lv = name v in
    let rec go = function a :: (b :: _ as rest) -> (a = lu && b = lv) || go rest | _ -> false in
    acc || go labels
  in
  let reads = List.stable_sort (fun (_, g, _) (_, g', _) -> compare g g') reads in
  let applied = ref 0 and extra = Hashtbl.create 4 in
  let memo = Hashtbl.create 64 in
  let advance_to k =
    while !applied < k && !applied < Array.length ok_writes do
      let m = ok_writes.(!applied) in
      ignore (Checkpoint.apply_mutation idx m);
      (match m with
      | Wal.Add_edge { u; v } -> Hashtbl.replace extra (u, v) ()
      | Wal.Remove_edge { u; v } -> Hashtbl.remove extra (u, v)
      | _ -> ());
      incr applied
    done
  in
  List.iter
    (fun (q, g, nodes) ->
      let k = g - gen0 in
      if k < 0 || k > Array.length ok_writes then note_wrong ctx "read from an unknown generation"
      else begin
        advance_to k;
        let labels = match ctx.queries.(q) with Inputs.Path l | Inputs.Planned (l, _) -> l in
        let expected =
          if not (Hashtbl.fold (crosses labels) extra false) then ctx.base.(q)
          else
            match Hashtbl.find_opt memo (k, q) with
            | Some a -> a
            | None ->
              let a = Inputs.answer idx ctx.queries.(q) in
              Hashtbl.add memo (k, q) a;
              a
        in
        if nodes <> expected then note_wrong ctx (Printf.sprintf "query %d at generation %d: wrong answer" q g)
      end)
    reads;
  advance_to (Array.length ok_writes)

(* Durability, read from the WAL segments on disk once the server is
   dead: what was logged after [st0]'s log position is exactly the
   acknowledged writes, in order.  A checkpoint rotation during the run
   starts a new segment (and resets the Stats counter), so every
   segment from [st0]'s on is read. *)
let check_logged ctx ~st0 ok_writes =
  let data = data_dir ctx in
  let seq0 = Conn.stat_int st0 "wal_seq" and skip = Conn.stat_int st0 "wal_records" in
  let segs = List.sort compare (List.filter (fun s -> s >= seq0) (Checkpoint.wal_seqs data)) in
  if not (List.mem seq0 segs) then note_wrong ctx (Printf.sprintf "WAL segment %d is missing" seq0)
  else begin
    let logged =
      List.concat_map
        (fun s ->
          let ms = (Wal.replay (Checkpoint.wal_file ~dir:data ~seq:s)).mutations in
          if s = seq0 then List.filteri (fun i _ -> i >= skip) ms else ms)
        segs
    in
    if logged <> Array.to_list ok_writes then
      note_wrong ctx
        (Printf.sprintf "the WAL holds %d records for %d acknowledged writes (or in another order)"
           (List.length logged) (Array.length ok_writes))
  end

let write_phase ctx client rate (seconds, traced) edges =
  let srv, c0, gen0, setup_samples = setup ctx ~traced in
  let tick = tick ctx ~traced in
  let wconn = Conn.dial ~port:srv.port ~alive:(fun () -> true) ~deadline:(Unix.gettimeofday () +. 5.0) in
  let reads = ref [] in
  let record q msg =
    Option.iter (fun nodes -> reads := (q, Inputs.reply_generation msg, nodes) :: !reads) (Inputs.reply_nodes msg)
  in
  let writes = Array.of_list (Inputs.add_remove_pairs edges) in
  account ctx
    (Load.run ~queries:ctx.queries ~reader:(reader ctx c0) ~rate ~seconds:warmup_s ~check:record ~tick ());
  let st0 = Conn.stats c0 in
  let rss = Stat.buf () and next_rss = ref 0.0 in
  let tick_rss now =
    tick now;
    if now >= !next_rss then begin
      Stat.add rss (Proc.rss_mb srv);
      next_rss := now +. 1.0
    end
  in
  let out =
    Load.run ~queries:ctx.queries ~reader:(reader ctx c0)
      ~writer:(wconn, Array.map Inputs.write_request writes)
      ~rate ~seconds ~check:record ~tick:tick_rss
      ?trace:(if traced then Some client else None)
      ()
  in
  account ctx out;
  let st1 = Conn.stats c0 in
  let ok_writes = Array.of_list (List.filteri (fun i _ -> not (Float.is_nan out.write_ms.(i))) (Array.to_list writes)) in
  (* the add/remove pairs leave the base state behind *)
  sweep ctx ~tick c0 ctx.base (Array.init (Array.length ctx.queries) Fun.id) (fun _ _ _ -> ());
  check_edges ctx c0 (edge_state (Array.to_list writes));
  let disk = Proc.dir_bytes (data_dir ctx) in
  Conn.close c0;
  Conn.close wconn;
  kill ctx srv;
  check_logged ctx ~st0 ok_writes;
  check_reads_during_writes ctx ~gen0 ~ok_writes !reads;
  { out; setup_samples; st0; st1; rss = Stat.median rss; disk }

let run_write ctx rate =
  let phases = phases ctx in
  let n_pairs = List.map (fun (s, _) -> int_of_float (rate *. s) / 2) phases in
  let edges = Inputs.fresh_edges ctx.ds.graph ~seed:ctx.seed ~count:(List.fold_left ( + ) 0 n_pairs) in
  let client = Trace.create () in
  let _, ps =
    List.fold_left2
      (fun (rest, ps) ph n ->
        let mine = List.filteri (fun i _ -> i < n) rest and rest = List.filteri (fun i _ -> i >= n) rest in
        (rest, ps @ [ write_phase ctx client rate ph mine ]))
      (edges, []) phases n_pairs
  in
  let p = List.hd ps in
  let o = p.out in
  let p50, p99, rps = windowed o in
  let late = Stat.buf () in
  List.iter (fun p -> Array.iter (Stat.add late) (Stat.sorted p.out.late_ms)) ps;
  (* Writes are summed up in groups of 12 add/remove pairs (about 5 s
     of writes) like the query windows.  Adds (Dk_update splits and a
     publish) take 20-60 ms and removes 1-17 ms, so a median over both
     kinds would fall in the gap between the two modes; a group's
     figure is the mean of its add median and its remove median, and
     its tail is its p90. *)
  let per_group = 24 in
  let n_groups = max 1 (Array.length o.write_ms / per_group) in
  let buffers () = Array.init n_groups (fun _ -> Stat.buf ()) in
  let all = buffers () and adds = buffers () and removes = buffers () in
  Array.iteri
    (fun i ms ->
      if not (Float.is_nan ms) then begin
        let g = min (i / per_group) (n_groups - 1) in
        Stat.add all.(g) ms;
        (* even writes are adds, odd ones their removes *)
        Stat.add (if i mod 2 = 0 then adds.(g) else removes.(g)) ms
      end)
    o.write_ms;
  let groups = List.filter (fun g -> Stat.count adds.(g) > 0 && Stat.count removes.(g) > 0) (List.init n_groups Fun.id) in
  let n_acked = Array.fold_left (fun n b -> n + Stat.count b) 0 all in
  ( {
      setup = p.setup_samples;
      n_rtt = Stat.count o.rtt_us;
      q_p50_us = p50;
      q_p99_us = p99;
      rps;
      op_name = "write";
      n_op = n_acked;
      op_p50_ms = good_latency (List.map (fun g -> (Stat.median adds.(g) +. Stat.median removes.(g)) /. 2.0) groups);
      op_tail_ms = good_latency (List.map (fun g -> Stat.percentile all.(g) 90.0) groups);
      op_tail_pct = 90.0;
      rss_mb = p.rss;
      disk_mb = mib p.disk;
      late_ms = o.late_ms;
    },
    {
      untraced_rtt = o.rtt_us;
      traced_rtt = (last ps).out.rtt_us;
      client;
      stats0 = p.st0;
      stats1 = p.st1;
      late;
      invalidate_every = max 1 (Stat.count o.rtt_us / max 1 n_acked);
    },
    ctx.ds.index )

(* ------------------------------------------------------------------ *)
(* recover-s2000 *)

(* Data-dir preparation: a durable server writes the base checkpoint,
   is killed, and the seeded WAL tail is appended to its log. *)
let prepare ctx ~tail =
  let data = data_dir ctx in
  Proc.rm_rf data;
  let t0 = Stat.now () in
  let srv = spawn ctx ~traced:false ~data in
  let c, _ = first_answer ctx srv ~probe:0 ~expected:ctx.base in
  Conn.close c;
  kill ctx srv;
  let seq = List.fold_left max 0 (Checkpoint.checkpoint_seqs data) in
  let w = Wal.create ~sync:(Wal.Interval 64) (Checkpoint.wal_file ~dir:data ~seq) in
  List.iter (Wal.append w) tail;
  Wal.close w;
  Stat.now () -. t0

let run_recover ctx =
  let idx = ctx.ds.index in
  let tail = Inputs.wal_tail ctx.ds.graph ~seed:ctx.seed in
  let rec prep acc =
    let acc = prepare ctx ~tail :: acc in
    if List.length acc = n_setups ctx then acc else prep acc
  in
  let setup_samples = prep [] in
  let tail_edges = edge_state tail in
  let pristine = Filename.concat ctx.dir "pristine" in
  Proc.copy_dir (data_dir ctx) pristine;
  List.iter (fun m -> ignore (Checkpoint.apply_mutation idx m)) tail;
  let expected = Inputs.answers idx ctx.queries in
  (* probe with a query the tail changes, so a skipped replay shows *)
  let probe =
    let rec find q = if q = Array.length expected then 0 else if expected.(q) <> ctx.base.(q) then q else find (q + 1) in
    find 0
  in
  let rng = Prng.create ~seed:ctx.seed in
  let recov = Stat.buf () and rtt_u = Stat.buf () and rtt_t = Stat.buf () in
  (* each untraced sweep's p50, p99 and rate, summed up over the sweeps
     like write-s2000's windows *)
  let p50s = ref [] and p99s = ref [] and rates = ref [] in
  let rss = Stat.buf () and disk = ref 0 in
  let client = Trace.create () in
  let stats = ref ([], []) in
  List.iter
    (fun (seconds, traced) ->
      let tick = tick ctx ~traced in
      let t_end = Stat.now () +. seconds and cycles = ref 0 in
      while Stat.now () < t_end || !cycles < 3 do
        incr cycles;
        Proc.copy_dir pristine (data_dir ctx);
        let t0 = Stat.now () in
        let srv = spawn ctx ~traced ~data:(data_dir ctx) in
        let c, _ = first_answer ctx srv ~probe ~expected in
        if not traced then Stat.add recov ((Stat.now () -. t0) *. 1e3);
        if traced then watch_gc ctx srv;
        let s0 = if ctx.gc <> None then Conn.stats c else [] in
        (* sweep the whole mix on the recovered server *)
        let order = Array.init (Array.length ctx.queries) Fun.id in
        Prng.shuffle rng order;
        let cycle = Stat.buf () in
        let ts = Stat.now () in
        sweep ctx ~tick c expected order (fun _ t t' ->
            Stat.add cycle ((t' -. t) *. 1e6);
            Stat.add (if traced then rtt_t else rtt_u) ((t' -. t) *. 1e6);
            if traced then Trace.record client "client.query" ~req:(Stat.count rtt_t) ~start:t ~stop:t');
        if not traced then begin
          p50s := Stat.median cycle :: !p50s;
          p99s := Stat.percentile cycle 99.0 :: !p99s;
          rates := (float_of_int (Stat.count cycle) /. (Stat.now () -. ts)) :: !rates
        end;
        check_edges ctx c tail_edges;
        if ctx.gc <> None && not traced then stats := (s0, Conn.stats c);
        if not traced then begin
          Stat.add rss (Proc.rss_mb srv);
          disk := Proc.dir_bytes (data_dir ctx)
        end;
        Conn.close c;
        kill ctx srv
      done)
    (phases ctx);
  ( {
      setup = setup_samples;
      n_rtt = Stat.count rtt_u;
      q_p50_us = good_latency !p50s;
      q_p99_us = good_latency !p99s;
      rps = good_rate !rates;
      op_name = "recovery";
      n_op = Stat.count recov;
      op_p50_ms = Stat.median recov;
      op_tail_ms = Stat.percentile recov 90.0;
      op_tail_pct = 90.0;
      rss_mb = Stat.median rss;
      disk_mb = mib !disk;
      late_ms = Stat.buf ();
    },
    {
      untraced_rtt = rtt_u;
      traced_rtt = (if ctx.gc = None then rtt_u else rtt_t);
      client;
      stats0 = fst !stats;
      stats1 = snd !stats;
      late = Stat.buf ();
      invalidate_every = Array.length ctx.queries;
    },
    idx )

(* ------------------------------------------------------------------ *)
(* Traced in-process replay *)

let wire_result (r : Query_eval.result) =
  {
    Wire.nodes = Array.of_list r.nodes;
    index_visits = r.cost.index_visits;
    data_visits = r.cost.data_visits;
    n_candidates = r.n_candidates;
    n_certain = r.n_certain;
    generation = 0;
    age_ms = 0;
  }

type replay_counts = {
  mutable requests : int;
  mutable index_visits : int;
  mutable data_visits : int;
  mutable candidates : int;
  mutable answer_nodes : int;
  mutable planned : int;
  mutable index_scans : int;
  mutable resp_bytes : int;
}

(* Replay the reader's seeded request stream through the layers
   the server runs for it — request codec, planner, evaluator with a
   validation cache, reply codec — each call a span under one
   "request" span.  The walk and the client-side parse are timed as
   separate top-level spans: they are not steps of the served path.
   The cache is reset every [invalidate_every] requests (0: never), as
   often as the measured server's cache went cold: once per publish
   under writes, once per restart and sweep on recovery. *)
let replay_queries ctx tr idx ~expected ~invalidate_every ~max_requests ~budget_s =
  Index_graph.prepare_serving idx;
  let cache = Validation_cache.create idx in
  let pl = Planner.create (Index_graph.data idx) in
  Planner.register pl ~name:"index" ~cache idx;
  let pool = Data_graph.pool (Index_graph.data idx) in
  let pick = Inputs.picker ~seed:ctx.seed (Array.length ctx.queries) in
  let out = Obuf.create 4096 in
  let k =
    { requests = 0; index_visits = 0; data_visits = 0; candidates = 0; answer_nodes = 0; planned = 0; index_scans = 0; resp_bytes = 0 }
  in
  let t_end = Stat.now () +. budget_s in
  let codes labels =
    let c = List.map (Label.Pool.find_opt pool) labels in
    if List.exists Option.is_none c then None else Some (Array.of_list (List.map Option.get c))
  in
  let count (r : Query_eval.result) =
    k.index_visits <- k.index_visits + r.cost.index_visits;
    k.data_visits <- k.data_visits + r.cost.data_visits;
    k.candidates <- k.candidates + r.n_candidates;
    k.answer_nodes <- k.answer_nodes + List.length r.nodes
  in
  while k.requests < max_requests && Stat.now () < t_end do
    let r = k.requests + 1 in
    k.requests <- r;
    if invalidate_every > 0 && (r - 1) mod invalidate_every = 0 then Validation_cache.invalidate cache;
    let q = pick () in
    let span name f = Trace.span tr name ~req:r f in
    span "request" (fun () ->
        let decoded =
          span "wire.req_codec" (fun () ->
              Obuf.clear out;
              Wire.encode_request out ~id:r (Inputs.request ctx.queries.(q));
              Wire.decode_request_at (Bytes.unsafe_to_string (Obuf.base out)) ~pos:4 ~len:(Obuf.length out - 4))
        in
        let resp =
          match decoded with
          | Ok { msg = Wire.Query_path { labels; _ }; _ } ->
            let res =
              span "query_eval.eval_path" (fun () ->
                  match codes labels with
                  | Some c -> Query_eval.eval_path ~cache idx c
                  | None -> { Query_eval.nodes = []; cost = Dkindex_pathexpr.Cost.create (); n_candidates = 0; n_certain = 0 })
            in
            count res;
            Wire.Result (wire_result res)
          | Ok { msg = Wire.Query_planned { expr; _ }; _ } ->
            let plan = span "planner.choose" (fun () -> Planner.choose pl expr) in
            k.planned <- k.planned + 1;
            (match plan.Plan.access with Plan.Raw -> () | _ -> k.index_scans <- k.index_scans + 1);
            let res = span "planner.execute" (fun () -> Planner.execute pl plan expr) in
            count res;
            Wire.Planned_result { plan = Plan.describe plan; result = wire_result res }
          | _ -> failwith "replay: request did not round-trip"
        in
        let len =
          span "wire.resp_encode" (fun () ->
              Obuf.clear out;
              Wire.encode_response out ~id:r resp;
              Obuf.length out)
        in
        k.resp_bytes <- k.resp_bytes + len;
        let back =
          span "wire.resp_decode" (fun () ->
              Wire.decode_response_at (Bytes.unsafe_to_string (Obuf.base out)) ~pos:4 ~len:(len - 4))
        in
        match back with
        | Ok { msg; _ } when Inputs.reply_nodes msg = Some expected.(q) -> ()
        | _ -> note_wrong ctx (Printf.sprintf "replayed query %d: wrong answer" q));
    match ctx.queries.(q) with
    | Inputs.Path labels ->
      Option.iter (fun c -> ignore (span "query_eval.walk" (fun () -> Query_eval.eval_path_finals idx c))) (codes labels)
    | Inputs.Planned (labels, _) ->
      let s = String.concat "." labels in
      ignore (span "path_parser.parse" (fun () -> Path_parser.parse s))
  done;
  k

(* Serialization, incremental maintenance and durability on a private
   copy of the index: the mutator's per-write steps (apply, log,
   publish), a checkpoint write and close, and recovery of [recover_dir]. *)
let replay_durability ctx tr idx ~recover_dir =
  let span name f = Trace.span tr name ~req:0 f in
  let s = span "index_serial.encode" (fun () -> Index_serial.to_string idx) in
  let copy = span "index_serial.decode" (fun () -> Index_serial.of_string s) in
  let writes =
    Inputs.add_remove_pairs (Inputs.fresh_edges (Index_graph.data copy) ~seed:(ctx.seed + 1) ~count:32)
  in
  let dir = Filename.concat ctx.dir "trace-ckpt" in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let ck = span "checkpoint.write" (fun () -> Checkpoint.start (Checkpoint.default_config ~dir) copy) in
  List.iter
    (fun m ->
      span "dk_update.edge" (fun () ->
          match m with
          | Wal.Add_edge { u; v } -> Dk_update.add_edge copy u v
          | Wal.Remove_edge { u; v } -> Dk_update.remove_edge copy u v
          | _ -> ());
      span "wal.append" (fun () -> Checkpoint.log_mutation ck m);
      span "index_graph.prepare_serving" (fun () -> Index_graph.prepare_serving copy))
    writes;
  let rec_dir = Option.value recover_dir ~default:dir in
  let rc = span "checkpoint.recover" (fun () -> Checkpoint.recover ~dir:rec_dir ()) in
  (match span "checkpoint.write" (fun () -> Checkpoint.close ck copy) with
  | Ok () -> ()
  | Error e -> failwith ("checkpoint close: " ^ e));
  let w = Wal.create ~sync:Wal.Never (Filename.concat dir "sync-probe.log") in
  List.iter
    (fun m ->
      Wal.append w m;
      span "wal.sync" (fun () -> Wal.sync w))
    writes;
  let bytes_per_write = float_of_int (Wal.bytes w) /. float_of_int (max 1 (Wal.records w)) in
  Wal.close w;
  (rc.Checkpoint.replayed_records, bytes_per_write)

(* ------------------------------------------------------------------ *)
(* Reporting *)

type metric = { mname : string; unit_ : string; value : float; samples : int }

let m mname unit_ ?(samples = 1) value = { mname; unit_; value = (if Float.is_finite value then value else 0.0); samples }

let end_to_end (e : e2e) =
  [
    m "setup_s" "s" ~samples:(List.length e.setup) (Stat.median_of e.setup);
    m "query_p50_us" "us" ~samples:e.n_rtt e.q_p50_us;
    m "query_p99_us" "us" ~samples:e.n_rtt e.q_p99_us;
    m "query_rps" "1/s" ~samples:e.n_rtt e.rps;
    m "op_p50_ms" "ms" ~samples:e.n_op e.op_p50_ms;
    m "op_tail_ms" "ms" ~samples:e.n_op e.op_tail_ms;
    m "rss_mb" "MB" e.rss_mb;
    m "disk_mb" "MB" e.disk_mb;
  ]

let delta s0 s1 key = Conn.stat_int s1 key - Conn.stat_int s0 key

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let per_layer ctx (t : traced) tr k ~replayed ~bytes_per_write ~build =
  let st = Trace.self_times tr in
  (* mean self time of a span, with its call count as the sample count *)
  let self ?(scale = 1.0) name span =
    m name (if scale = 1.0 then "us" else "ms") ~samples:(Trace.calls st span) (Trace.mean_self_us st span /. scale)
  in
  let n_req = max 1 k.requests in
  let per_req name unit_ total = m name unit_ ~samples:k.requests (float_of_int total /. float_of_int n_req) in
  let s0 = t.stats0 and s1 = t.stats1 in
  let d key = delta s0 s1 key in
  let abs_ name key = m name "count" (float_of_int (Conn.stat_int s1 key)) in
  let gc = Option.get ctx.gc in
  let walk = Trace.mean_self_us st "query_eval.walk" in
  let xmark_ms, build_ms = build in
  [
    self "wire.req_codec_us" "wire.req_codec";
    self "wire.resp_encode_us" "wire.resp_encode";
    self "wire.resp_decode_us" "wire.resp_decode";
    per_req "wire.resp_bytes" "B" k.resp_bytes;
    m "server.unattributed_us" "us" ~samples:(Stat.count t.untraced_rtt)
      (Stat.mean t.untraced_rtt -. Trace.mean_dur_us st "request");
    m "server.inline_frac" "frac" ~samples:(d "served") (ratio (d "served_inline") (d "served"));
    m "server.shed" "count" (float_of_int (d "shed"));
    m "server.deadline_expired" "count" (float_of_int (d "deadline_expired"));
    self "path_parser.parse_us" "path_parser.parse";
    self "planner.choose_us" "planner.choose";
    m "planner.index_scan_frac" "frac" ~samples:k.planned (ratio k.index_scans k.planned);
    self "query_eval.walk_us" "query_eval.walk";
    m "query_eval.validate_us" "us" ~samples:(Trace.calls st "query_eval.eval_path")
      (Trace.mean_dur_us st "query_eval.eval_path" -. walk);
    self "query_eval.expr_us" "planner.execute";
    per_req "query_eval.index_visits" "count" k.index_visits;
    per_req "query_eval.data_visits" "count" k.data_visits;
    m "query_eval.candidates_per_answer" "frac" ~samples:k.requests (ratio k.candidates k.answer_nodes);
    m "vcache.hit_ratio" "frac" ~samples:(d "vcache_hits" + d "vcache_misses")
      (ratio (d "vcache_hits") (d "vcache_hits" + d "vcache_misses"));
    m "vcache.evictions" "count" (float_of_int (d "vcache_evictions"));
    self "dk_update.edge_us" "dk_update.edge";
    self ~scale:1e3 "index_graph.prepare_serving_ms" "index_graph.prepare_serving";
    abs_ "index_graph.n_nodes" "n_index_nodes";
    self "wal.append_us" "wal.append";
    self "wal.sync_us" "wal.sync";
    m "wal.bytes_per_write" "B" bytes_per_write;
    self ~scale:1e3 "checkpoint.write_ms" "checkpoint.write";
    abs_ "checkpoint.count" "checkpoints_written";
    m "checkpoint.bytes" "B" (float_of_int (Conn.stat_int s1 "checkpoint_last_bytes"));
    self ~scale:1e3 "checkpoint.recover_ms" "checkpoint.recover";
    m "checkpoint.replayed_records" "count" (float_of_int replayed);
    self ~scale:1e3 "index_serial.decode_ms" "index_serial.decode";
    self ~scale:1e3 "index_serial.encode_ms" "index_serial.encode";
    m "xmark.graph_ms" "ms" xmark_ms;
    m "dk_index.build_ms" "ms" build_ms;
    m "gc.minor_count" "count" (float_of_int gc.minors);
    m "gc.major_slice_ms" "ms" (Int64.to_float gc.major_ns /. 1e6);
    m "gc.pause_p99_us" "us" ~samples:(Stat.count gc.pauses_us) (Stat.percentile gc.pauses_us 99.0);
    m "gen.late_ms" "ms" ~samples:(Stat.count t.late) (Stat.percentile t.late 95.0);
    m "trace.overhead_us" "us" ~samples:(Stat.count t.traced_rtt)
      (Stat.median t.traced_rtt -. Stat.median t.untraced_rtt);
  ]

let json_of ctx metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (ctx.wrong = 0) (max 1 ctx.attempted) ctx.failed;
  List.iteri
    (fun i x ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" (if i = 0 then "" else ", ") x.mname
        x.value x.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Main *)

let usage = "dkbench --server EXE --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let server = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--server", Arg.Set_string server, "EXE dkindex-server binary");
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer metrics (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("dkbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  if not (Sys.file_exists !server) then begin
    prerr_endline ("dkbench: server binary not found: " ^ !server);
    exit 2
  end;
  let dir = Filename.concat (Filename.concat (Sys.getcwd ()) "dkbench/_run") wl.name in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let traced = !trace = 1 in
  let stop _ =
    Proc.kill_all ();
    exit 1
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Fun.protect ~finally:Proc.kill_all @@ fun () ->
  try
    let t0 = Stat.now () in
    let ds = Dataset.make ~scale:wl.scale () in
    let queries = Inputs.mix ds in
    let base = Inputs.answers ds.index queries in
    Printf.printf "dkbench %s seed %d: %d queries (%d label paths, %d planned), data %d nodes, index %d nodes, built in %.2f s\n%!"
      wl.name !seed (Array.length queries) (List.length ds.queries)
      (Array.length queries - List.length ds.queries)
      (Data_graph.n_nodes ds.graph) (Index_graph.n_nodes ds.index) (Stat.now () -. t0);
    let ctx =
      {
        wl;
        seed = !seed;
        seconds = !seconds;
        server_exe = !server;
        dir;
        gc = (if traced then Some (Gcwatch.create dir) else None);
        ds;
        queries;
        base;
        attempted = 0;
        failed = 0;
        wrong = 0;
        first_wrong = None;
      }
    in
    let e, t, idx =
      match wl.kind with
      | Write rate -> run_write ctx rate
      | Recover -> run_recover ctx
    in
    let metrics =
      if not traced then end_to_end e
      else begin
        let tr = Trace.create () in
        let time f =
          let t = Stat.now () in
          let r = f () in
          (r, (Stat.now () -. t) *. 1e3)
        in
        let g, xmark_ms = time (fun () -> Dkindex_datagen.Xmark.graph ~scale:wl.scale ()) in
        let _, build_ms = time (fun () -> Dk_index.build g ~reqs:Dataset.reqs) in
        let expected = Inputs.answers idx queries in
        let k =
          replay_queries ctx tr idx ~expected ~invalidate_every:t.invalidate_every
            ~max_requests:(max 1 (Stat.count t.traced_rtt)) ~budget_s:5.0
        in
        let recover_dir =
          match wl.kind with
          | Recover ->
            let d = Filename.concat dir "trace-recover" in
            Proc.copy_dir (Filename.concat dir "pristine") d;
            Some d
          | _ -> None
        in
        let replayed, bytes_per_write = replay_durability ctx tr idx ~recover_dir in
        Trace.write t.client (Filename.concat dir "client-spans.tsv");
        Trace.write tr (Filename.concat dir "replay-spans.tsv");
        per_layer ctx t tr k ~replayed ~bytes_per_write ~build:(xmark_ms, build_ms)
      end
    in
    if not traced then
      Printf.printf "  %s: %s p50 %.3f ms, tail p%g %.3f ms (n=%d); generator late p95 %.3f ms (n=%d)\n"
        wl.name e.op_name e.op_p50_ms e.op_tail_pct e.op_tail_ms e.n_op
        (Stat.percentile e.late_ms 95.0) (Stat.count e.late_ms);
    List.iter (fun x -> Printf.printf "  %-34s %14.4f %-5s (n=%d)\n" x.mname x.value x.unit_ x.samples) metrics;
    Printf.printf "  attempted %d, failed %d (error_frac %.6f), wrong answers %d%s\n" ctx.attempted ctx.failed
      (ratio ctx.failed (max 1 ctx.attempted))
      ctx.wrong
      (match ctx.first_wrong with Some s -> " (first: " ^ s ^ ")" | None -> "");
    print_endline (json_of ctx metrics)
  with e ->
    prerr_endline ("dkbench: " ^ Printexc.to_string e);
    Proc.kill_all ();
    exit 1
