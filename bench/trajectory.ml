(* Benchmark trajectory harness: a stable, machine-readable perf
   baseline for stacked PRs to regress against.

   Runs the micro-benchmark suite (best-of ns per op over repeated
   samples — timing noise on a shared machine is strictly additive, so
   the minimum is the robust estimator) plus a construction / query /
   update macro pass on XMark, and writes the results as JSON (default
   BENCH_PR9.json).  An optional [--baseline prev.json] merges a
   previous run into the output as per-benchmark {"baseline_ns",
   "after_ns"} pairs so a PR records its own before/after evidence.

   All workloads are pinned (fixed label paths, fixed requirements,
   PRNG-seeded update edges drawn from label buckets that are stable
   under adjacency-layout changes) so numbers are comparable across
   internal representation changes.

   [--smoke] runs a tiny scale (< 30 s) suitable for `dune runtest` /
   `make bench-smoke`, skips the JSON file, and additionally asserts
   the allocation discipline of the Kbisim signature pass and of the
   zero-copy wire framing (in-place decode, reused reply buffer), and
   that publishing an edge insert leaves the data overflow unfolded. *)

open Dkindex_graph
open Dkindex_core
module Cost = Dkindex_pathexpr.Cost
module Server = Dkindex_server.Server
module Client = Dkindex_server.Client
module Wire = Dkindex_server.Wire
module Obuf = Dkindex_server.Obuf
module Wal = Dkindex_server.Wal
module Chaos = Dkindex_server.Chaos
module Checkpoint = Dkindex_server.Checkpoint

let scale = ref 40
let out_file = ref "BENCH_PR9.json"
let baseline_file = ref ""
let smoke = ref false
let no_out = ref false
let xl = ref false
let xl_edges = ref 10_000_000
let xl_heap_cap_mb = ref 512
let xl_child = ref ""
let xl_dir = ref ""

let spec =
  [
    ("--scale", Arg.Set_int scale, "N  XMark scale for the macro pass (default 40)");
    ("--out", Arg.Set_string out_file, "FILE  output JSON (default BENCH_PR9.json)");
    ( "--baseline",
      Arg.Set_string baseline_file,
      "FILE  merge a previous run as baseline_ns/after_ns pairs" );
    ("--smoke", Arg.Set smoke, "   tiny-scale smoke run: no JSON, allocation assertions");
    ("--no-out", Arg.Set no_out, "   measure and print, but write no file");
    ( "--xl",
      Arg.Set xl,
      "   run the out-of-core scale:xl series (streamed datagen, external build, mmap \
       query) with per-bench peak-RSS tracking" );
    ( "--xl-edges",
      Arg.Set_int xl_edges,
      "N  edge count for the xl random graph (default 10_000_000)" );
    ( "--xl-heap-cap-mb",
      Arg.Set_int xl_heap_cap_mb,
      "MB  fail the xl build bench if its peak OCaml heap exceeds this (default 512)" );
    ("--xl-child", Arg.Set_string xl_child, "NAME  (internal) run one xl bench and exit");
    ("--xl-dir", Arg.Set_string xl_dir, "DIR  (internal) working dir for --xl-child");
  ]

(* ------------------------------------------------------------------ *)
(* Host / process memory facts (Linux procfs; 0 where unavailable).    *)

let proc_status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line > String.length field
               && String.sub line 0 (String.length field) = field
            then
              Scanf.sscanf
                (String.sub line (String.length field) (String.length line - String.length field))
                " %d" (fun kb -> kb)
            else go ()
        in
        go ())

let peak_rss_bytes () = proc_status_kb "VmHWM:" * 1024

let host_total_ram_bytes () =
  match open_in "/proc/meminfo" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match input_line ic with
        | line -> ( try Scanf.sscanf line "MemTotal: %d kB" (fun kb -> kb * 1024) with _ -> 0)
        | exception End_of_file -> 0)

let page_size_bytes () =
  (* No getpagesize in the stdlib; mapped sections are 4096-aligned and
     that is the page size everywhere this runs, but ask getconf when
     available so the recorded metadata is honest. *)
  match Unix.open_process_in "getconf PAGE_SIZE 2>/dev/null" with
  | exception Unix.Unix_error _ -> 4096
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | _ -> ( match int_of_string_opt (String.trim line) with Some n when n > 0 -> n | _ -> 4096))

(* ------------------------------------------------------------------ *)
(* Timing: minimum ns/op over [reps] samples.  Each sample times a
   batch sized so that one sample lasts >= 2 ms, which keeps clock
   granularity noise < 1%; taking the minimum discards samples
   inflated by ambient load. *)

let now_ns () = Unix.gettimeofday () *. 1e9

let best_ns ?(reps = 9) f =
  (* Calibrate the batch size on a first untimed-ish run. *)
  let t0 = now_ns () in
  f ();
  let once = now_ns () -. t0 in
  let batch = max 1 (int_of_float (2e6 /. max 1.0 once)) in
  let samples =
    Array.init reps (fun _ ->
        let t0 = now_ns () in
        for _ = 1 to batch do
          f ()
        done;
        (now_ns () -. t0) /. float_of_int batch)
  in
  Array.sort compare samples;
  samples.(0)

(* Like [best_ns] but re-allocates fresh resources per sample and
   times [runs] applications of [f] on each (for mutating operations).
   One application can be under a microsecond — the clock's resolution
   — so each sample times a batch of [batch] fresh resources
   back-to-back, keeping the timed region in the tens of microseconds
   at least. *)
let best_ns_with_resource ?(reps = 21) ?(batch = 32) ~allocate ~runs f =
  let samples =
    Array.init reps (fun _ ->
        let rs = Array.init batch (fun _ -> allocate ()) in
        let t0 = now_ns () in
        Array.iter f rs;
        (now_ns () -. t0) /. float_of_int (runs * batch))
  in
  Array.sort compare samples;
  samples.(0)

(* [Gc.quick_stat] only refreshes [minor_words] at collection
   boundaries; the [Gc.minor_words] primitive reads the allocation
   pointer exactly. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Pinned workload *)

(* Label paths that exist in the XMark generator at every scale.  Kept
   as strings: eval_path_strings interns against the pool, so these are
   stable under any adjacency-layout change. *)
let query_paths =
  [
    [ "site"; "open_auctions"; "open_auction"; "bidder"; "personref" ];
    [ "site"; "people"; "person"; "profile"; "interest" ];
    [ "open_auction"; "bidder"; "increase" ];
    [ "site"; "closed_auctions"; "closed_auction"; "annotation"; "author" ];
    [ "person"; "watches"; "watch" ];
  ]

(* Fixed requirements: what a mined workload over paths like the above
   typically asks for, pinned so D(k) construction work is identical
   across runs. *)
let fixed_reqs =
  [
    ("personref", 4);
    ("bidder", 3);
    ("interest", 4);
    ("author", 4);
    ("watch", 2);
    ("itemref", 2);
    ("increase", 2);
    ("city", 3);
  ]

let intern_path pool path =
  match List.map (Label.Pool.find_opt pool) path with
  | codes when List.for_all Option.is_some codes ->
    Array.of_list (List.map Option.get codes)
  | _ -> invalid_arg ("trajectory: unknown label in query " ^ String.concat "." path)

(* The Section 6.2 random ID/IDREF edge additions, reproduced here so
   the harness does not depend on bench/experiments.ml internals.
   nodes_with_label returns increasing ids, so the drawn edges are
   stable across adjacency-layout changes. *)
let update_edges g ~count ~seed =
  let rng = Dkindex_datagen.Prng.create ~seed in
  let pool = Data_graph.pool g in
  let groups =
    List.filter_map
      (fun (src, dst) ->
        match (Label.Pool.find_opt pool src, Label.Pool.find_opt pool dst) with
        | Some ls, Some ld -> (
          match (Data_graph.nodes_with_label g ls, Data_graph.nodes_with_label g ld) with
          | [], _ | _, [] -> None
          | srcs, dsts -> Some (Array.of_list srcs, Array.of_list dsts))
        | _, _ -> None)
      Dkindex_datagen.Xmark.ref_pairs
  in
  let groups = Array.of_list groups in
  List.init count (fun _ ->
      let srcs, dsts = Dkindex_datagen.Prng.choose rng groups in
      (Dkindex_datagen.Prng.choose rng srcs, Dkindex_datagen.Prng.choose rng dsts))

(* ------------------------------------------------------------------ *)
(* JSON (minimal writer/reader for the flat shapes we emit) *)

type entry = {
  name : string;
  after_ns : float;
  baseline_ns : float option;
  rss_bytes : int option;  (* peak VmHWM of the forked runner, xl series only *)
}

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Reads {"benchmarks": {"name": {... "after_ns": N ...}, ...}} written
   by a previous run; tolerant of field order. *)
let read_baseline path =
  let text =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let table = Hashtbl.create 32 in
  (* Scan for  "name": { ... "after_ns": <float> ... }  pairs. *)
  let len = String.length text in
  let rec skip_ws i = if i < len && (text.[i] = ' ' || text.[i] = '\n' || text.[i] = '\t') then skip_ws (i + 1) else i in
  let rec scan i depth current =
    if i >= len then ()
    else
      match text.[i] with
      | '"' -> (
        let j = ref (i + 1) in
        let buf = Buffer.create 16 in
        while !j < len && text.[!j] <> '"' do
          if text.[!j] = '\\' && !j + 1 < len then begin
            Buffer.add_char buf text.[!j + 1];
            j := !j + 2
          end
          else begin
            Buffer.add_char buf text.[!j];
            incr j
          end
        done;
        let key = Buffer.contents buf in
        let k = skip_ws (!j + 1) in
        if k < len && text.[k] = ':' then begin
          let v = skip_ws (k + 1) in
          if v < len && text.[v] = '{' then scan (v + 1) (depth + 1) (Some key)
          else begin
            (* numeric or other scalar *)
            (if String.equal key "after_ns" || String.equal key "median_ns" then
               match current with
               | Some bench ->
                 let e = ref v in
                 while
                   !e < len
                   && (match text.[!e] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
                 do
                   incr e
                 done;
                 (try Hashtbl.replace table bench (float_of_string (String.sub text v (!e - v)))
                  with _ -> ())
               | None -> ());
            scan (k + 1) depth current
          end
        end
        else scan (!j + 1) depth current)
      | '}' -> scan (i + 1) (depth - 1) (if depth - 1 <= 2 then None else current)
      | _ -> scan (i + 1) depth current
  in
  scan 0 0 None;
  table

let write_json path ~entries ~macro =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"dkindex-bench-trajectory/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"scale\": %d,\n" !scale);
  Buffer.add_string buf "  \"benchmarks\": {\n";
  let n = List.length entries in
  List.iteri
    (fun i e ->
      Buffer.add_string buf (Printf.sprintf "    \"%s\": {" (json_escape e.name));
      (match e.baseline_ns with
      | Some b ->
        Buffer.add_string buf
          (Printf.sprintf "\"baseline_ns\": %.1f, \"after_ns\": %.1f, \"speedup\": %.3f" b
             e.after_ns
             (if e.after_ns > 0.0 then b /. e.after_ns else 0.0))
      | None -> Buffer.add_string buf (Printf.sprintf "\"after_ns\": %.1f" e.after_ns));
      (match e.rss_bytes with
      | Some rss -> Buffer.add_string buf (Printf.sprintf ", \"rss_bytes\": %d" rss)
      | None -> ());
      Buffer.add_string buf (if i = n - 1 then "}\n" else "},\n"))
    entries;
  Buffer.add_string buf "  },\n  \"macro\": {\n";
  let nm = List.length macro in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf (Printf.sprintf "    \"%s\": %s" (json_escape k) v);
      Buffer.add_string buf (if i = nm - 1 then "\n" else ",\n"))
    macro;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Allocation-discipline assertion (smoke mode): one Kbisim refinement
   round must not allocate per-parent list cells.  On a graph with m >>
   n the list-based refinement allocated >= 3m words; the signature
   pass writes into preallocated scratch, so the whole round stays well
   under m words once the O(n) result arrays are discounted. *)
let assert_refine_allocation () =
  let nodes = 2_000 and fan = 64 in
  let b = Builder.create () in
  let spine = Array.make nodes 0 in
  let node = ref (Builder.root b) in
  for i = 0 to nodes - 1 do
    node := Builder.add_child b ~parent:!node (if i mod 3 = 0 then "a" else "b");
    spine.(i) <- !node
  done;
  (* Dense extra edges: m ~ nodes * fan/2 without new nodes. *)
  let rng = Dkindex_datagen.Prng.create ~seed:7 in
  for _ = 1 to (nodes * fan / 2) do
    let u = spine.(Dkindex_datagen.Prng.int rng nodes)
    and v = spine.(Dkindex_datagen.Prng.int rng nodes) in
    Builder.add_edge b u v
  done;
  let g = Builder.build b in
  let m = Data_graph.n_edges g in
  let n = Data_graph.n_nodes g in
  let p = Kbisim.label_partition g in
  (* Warm up (tables, one refinement's worth of survivors). *)
  ignore (Kbisim.refine g p ~eligible:(fun _ -> true));
  let before = allocated_words () in
  let p1, _ = Kbisim.refine g p ~eligible:(fun _ -> true) in
  let words = allocated_words () -. before in
  let budget = float_of_int ((24 * n) + (16 * p1.Kbisim.n_classes) + 65_536) in
  Printf.printf "  refine allocation: %.0f words (m=%d, n=%d, budget=%.0f)\n%!" words m n
    budget;
  if words > float_of_int m || words > budget then
    failwith
      (Printf.sprintf
         "Kbisim.refine allocated %.0f words on a graph with m=%d edges — per-node/per-edge \
          allocation crept back into the signature pass"
         words m)

(* Publish guard (smoke mode): publishing one edge insert must not
   fold the data graph's overflow layer — that fold costs O(data nodes
   + edges) on every write.  One fresh Dk_update.add_edge on XMark s40
   followed by prepare_serving must leave exactly that edge pending. *)
let assert_publish_keeps_overflow () =
  let g = Dkindex_datagen.Xmark.graph ~scale:40 () in
  let idx = Dk_index.build g ~reqs:fixed_reqs in
  let u, v =
    List.find (fun (u, v) -> not (Data_graph.has_edge g u v)) (update_edges g ~count:64 ~seed:5)
  in
  Dk_update.add_edge idx u v;
  Index_graph.prepare_serving idx;
  let pending = Data_graph.overflow_size g in
  Printf.printf "  publish guard: overflow %d after one add + prepare_serving\n%!" pending;
  if pending <> 1 then
    failwith
      (Printf.sprintf
         "prepare_serving left a data overflow of %d after one edge insert (want 1): the \
          per-publish data CSR fold crept back"
         pending)

(* Zero-copy framing assertions (smoke mode): decoding a frame sitting
   inside a large connection buffer must allocate a small constant —
   independent of where it sits and of the buffer's size (no
   per-frame [Bytes.sub] of the payload, let alone the buffer) — and
   steady-state reply encoding into a reused [Obuf] must not allocate
   fresh buffers per frame. *)
let assert_framing_allocation () =
  let ob = Obuf.create 64 in
  Wire.encode_request ob ~id:7 Wire.Ping;
  let frame = Obuf.contents ob in
  let payload_len = String.length frame - 4 in
  let big = Bytes.make (1 lsl 20) '\xAA' in
  let pos = 123_457 in
  Bytes.blit_string frame 4 big pos payload_len;
  let big = Bytes.unsafe_to_string big in
  let decode_once () =
    match Wire.decode_request_at big ~pos ~len:payload_len with
    | Ok { Wire.id = 7; msg = Wire.Ping } -> ()
    | Ok _ -> failwith "framing smoke: in-place decode returned the wrong frame"
    | Error e -> failwith ("framing smoke: in-place decode failed: " ^ e)
  in
  decode_once ();
  let n = 10_000 in
  let before = allocated_words () in
  for _ = 1 to n do
    decode_once ()
  done;
  let per_decode = (allocated_words () -. before) /. float_of_int n in
  let reply_buf = Obuf.create 256 in
  Wire.encode_response reply_buf ~id:0 Wire.Pong;
  let before = allocated_words () in
  for i = 1 to n do
    Obuf.clear reply_buf;
    Wire.encode_response reply_buf ~id:i Wire.Pong
  done;
  let per_encode = (allocated_words () -. before) /. float_of_int n in
  Printf.printf "  framing allocation: %.1f words/decode, %.1f words/encode\n%!" per_decode
    per_encode;
  if per_decode > 64.0 then
    failwith
      (Printf.sprintf
         "decode_request_at allocated %.1f words per frame — a payload or buffer copy crept \
          back into the in-place decode path"
         per_decode);
  if per_encode > 16.0 then
    failwith
      (Printf.sprintf
         "encode_response allocated %.1f words per frame into a reused Obuf — per-frame \
          buffer churn crept back into the reply path"
         per_encode)

(* ------------------------------------------------------------------ *)
(* scale:xl bench bodies.  Each runs in a fresh process (re-exec'd with
   [--xl-child]) so VmHWM and top_heap_words are the bench's own.  The
   timed region excludes setup that a real consumer would amortize
   (opening an already-built container before querying it). *)

let xl_child_main name =
  let dir = !xl_dir in
  let gpath = Filename.concat dir "xl.dkc" in
  let ipath = Filename.concat dir "xl-idx.dkc" in
  let nodes = max 2 (!xl_edges / 5) in
  let extra = max 0 (!xl_edges - (nodes - 1)) in
  let ns =
    match name with
    | "xl:datagen-stream" ->
      let t0 = now_ns () in
      Dkindex_datagen.Random_graph.stream ~seed:77 ~nodes ~n_labels:12 ~extra_edges:extra
        ~value_fraction:0.02 ~tmp_dir:dir ~path:gpath ();
      now_ns () -. t0
    | "xl:build-external" ->
      let g = Container.open_graph gpath in
      let t0 = now_ns () in
      let idx = Dk_index.build ~mode:`External g ~reqs:[ ("l0", 2); ("l1", 2) ] in
      let ns = now_ns () -. t0 in
      Index_serial.save_container ipath idx;
      let heap = Gc.((quick_stat ()).top_heap_words) * (Sys.word_size / 8) in
      let cap = !xl_heap_cap_mb * 1024 * 1024 in
      if heap > cap then
        failwith
          (Printf.sprintf "peak heap %d MiB exceeds the %d MiB cap" (heap / 1048576)
             !xl_heap_cap_mb);
      ns
    | "xl:open-mmap" ->
      let t0 = now_ns () in
      let g = Container.open_graph gpath in
      let ns = now_ns () -. t0 in
      ignore (Data_graph.n_nodes g);
      ns
    | "xl:load-index-mmap" ->
      let t0 = now_ns () in
      let idx = Index_serial.load_container ipath in
      let ns = now_ns () -. t0 in
      ignore (Index_graph.n_nodes idx);
      ns
    | "xl:query-mmap" ->
      let idx = Index_serial.load_container ipath in
      let best = ref infinity in
      for _ = 1 to 3 do
        let t0 = now_ns () in
        ignore (Query_eval.eval_path_strings idx [ "l0"; "l1" ]);
        let ns = now_ns () -. t0 in
        if ns < !best then best := ns
      done;
      !best
    | other -> failwith ("unknown xl bench " ^ other)
  in
  let heap = Gc.((quick_stat ()).top_heap_words) * (Sys.word_size / 8) in
  Printf.printf "%.0f %d %d\n%!" ns (peak_rss_bytes ()) heap

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench/trajectory.exe";
  if not (String.equal !xl_child "") then begin
    xl_child_main !xl_child;
    exit 0
  end;
  if !smoke then begin
    (* Smallest scale where every pinned workload label occurs. *)
    scale := 8;
    no_out := true
  end;
  Printf.printf "trajectory: XMark scale %d%s\n%!" !scale (if !smoke then " (smoke)" else "");
  let g = Dkindex_datagen.Xmark.graph ~scale:!scale () in
  let pool = Data_graph.pool g in
  let queries = List.map (intern_path pool) query_paths in
  let q0 = List.hd queries in
  let reqs = fixed_reqs in
  let t_build0 = now_ns () in
  let words0 = allocated_words () in
  let dk = Dk_index.build g ~reqs in
  let build_words = allocated_words () -. words0 in
  let build_ms = (now_ns () -. t_build0) /. 1e6 in
  let a2 = A_k_index.build g ~k:2 in
  let n_updates = if !smoke then 10 else 50 in
  let edges = update_edges g ~count:n_updates ~seed:3 in
  let u1, v1 = List.hd edges in
  let iu = Index_graph.cls dk u1 and iv = Index_graph.cls dk v1 in
  let entries = ref [] in
  let bench name f =
    let ns = best_ns f in
    Printf.printf "  %-44s %12.0f ns/op\n%!" name ns;
    entries := { name; after_ns = ns; baseline_ns = None; rss_bytes = None } :: !entries
  in
  let bench_resource name ~allocate ~runs f =
    let ns = best_ns_with_resource ~allocate ~runs f in
    Printf.printf "  %-44s %12.0f ns/op\n%!" name ns;
    entries := { name; after_ns = ns; baseline_ns = None; rss_bytes = None } :: !entries
  in
  (* Figures 4/5: construction and query evaluation. *)
  bench "fig4/5:build-A(2)" (fun () -> ignore (A_k_index.build g ~k:2));
  bench "fig4/5:build-D(k)" (fun () -> ignore (Dk_index.build g ~reqs));
  bench "fig4/5:query-D(k)" (fun () -> ignore (Query_eval.eval_path dk q0));
  bench "fig4/5:query-A(2)" (fun () -> ignore (Query_eval.eval_path a2 q0));
  bench "fig4/5:query-data-naive" (fun () ->
      ignore (Dkindex_pathexpr.Matcher.eval_label_path g q0 ~cost:(Cost.create ())));
  (* Path-expression engine over the index. *)
  (let expr = Dkindex_pathexpr.Path_parser.parse "open_auction.(bidder|seller).personref?" in
   bench "fig4/5:query-expr-D(k)" (fun () -> ignore (Query_eval.eval_expr dk expr));
   (* Serving: one warm cross-query validation cache per benchmark —
      the steady state of a query server between index updates. *)
   let cache = Validation_cache.create dk in
   bench "serve:query-D(k)-cached" (fun () -> ignore (Query_eval.eval_path ~cache dk q0));
   bench "serve:query-expr-D(k)-cached" (fun () ->
       ignore (Query_eval.eval_expr ~cache dk expr)));
  (* Batch driver: the pinned workload cycled into a fixed batch, served
     over 1/2/4 domains.  Recorded per query so the entries compare
     directly with the single-query latencies above.  On a machine with
     fewer cores than domains the >1 entries measure scheduling overhead
     rather than speedup; the macro section records the host's core
     count for honest reading. *)
  (let batch = List.concat_map (fun q -> [ q; q; q; q ]) queries in
   let per_query ns = ns /. float_of_int (List.length batch) in
   List.iter
     (fun domains ->
       let name = Printf.sprintf "serve:batch-throughput-d%d" domains in
       let ns = best_ns (fun () -> ignore (Query_eval.eval_batch ~domains dk batch)) in
       let ns = per_query ns in
       Printf.printf "  %-44s %12.0f ns/query\n%!" name ns;
       entries := { name; after_ns = ns; baseline_ns = None; rss_bytes = None } :: !entries)
     [ 1; 2; 4 ]);
  (* Cost-based planner over the full index family.  Per pinned query:
     plan:best-single / plan:worst-single are the best / worst
     hand-picked single-index scan (min / max over the family of each
     query's best-of time, summed, then averaged per query), plan:auto
     is the planner end to end (statistics consultation + plan choice
     + execution), and plan:choose is the planning step alone.  No
     validation caches on either side, so the comparison is symmetric. *)
  let plan_facts = ref [] in
  (let module Plan = Dkindex_planner.Plan in
   let module Planner = Dkindex_planner.Planner in
   let one = One_index.build g in
   let ls = Label_split.build g in
   let fb = Fb_index.build g in
   let pl = Planner.create g in
   Planner.register pl ~name:"dk" dk;
   Planner.register pl ~name:"ak" a2;
   Planner.register pl ~name:"1-index" one;
   Planner.register pl ~name:"label-split" ls;
   Planner.register pl ~name:"fb" fb;
   Planner.observe_workload pl queries;
   let family = [ dk; a2; one; ls; fb ] in
   let nq = float_of_int (List.length queries) in
   let scan_ns =
     List.map
       (fun q ->
         List.map
           (fun idx -> best_ns (fun () -> ignore (Query_eval.eval_path ~strategy:`Auto idx q)))
           family)
       queries
   in
   let total f = List.fold_left (fun acc per_q -> acc +. f per_q) 0.0 scan_ns in
   let best = total (List.fold_left Float.min infinity) in
   let worst = total (List.fold_left Float.max 0.0) in
   let auto =
     List.fold_left
       (fun acc q -> acc +. best_ns (fun () -> ignore (Planner.eval_planned_path pl q)))
       0.0 queries
   in
   let choose =
     List.fold_left
       (fun acc q -> acc +. best_ns (fun () -> ignore (Planner.choose_path pl q)))
       0.0 queries
   in
   let record name ns =
     Printf.printf "  %-44s %12.0f ns/query\n%!" name ns;
     entries := { name; after_ns = ns; baseline_ns = None; rss_bytes = None } :: !entries
   in
   record "plan:auto" (auto /. nq);
   record "plan:best-single" (best /. nq);
   record "plan:worst-single" (worst /. nq);
   record "plan:choose" (choose /. nq);
   plan_facts :=
     [
       ("plan_auto_vs_best_ratio", Printf.sprintf "%.3f" (auto /. best));
       ("plan_worst_vs_auto_ratio", Printf.sprintf "%.3f" (worst /. auto));
       ("plan_choose_overhead_pct", Printf.sprintf "%.2f" (100.0 *. choose /. auto));
     ];
   if !smoke then begin
     (* Catalog consultation must stay O(1) words per planned query:
        array indexing into the swept rows, a bounded list of plan
        records, no per-extent or per-node work. *)
     let q = List.hd queries in
     ignore (Planner.choose_path pl q);
     let n = 1_000 in
     let before = allocated_words () in
     for _ = 1 to n do
       ignore (Planner.choose_path pl q)
     done;
     let per_choose = (allocated_words () -. before) /. float_of_int n in
     Printf.printf "  planner allocation: %.0f words/choose\n%!" per_choose;
     if per_choose > 2048.0 then
       failwith
         (Printf.sprintf
            "Planner.choose allocated %.0f words — catalog consultation is no longer O(1)"
            per_choose)
   end);
  (* Substrate: bisimulation refinement. *)
  bench "substrate:label-split" (fun () -> ignore (Label_split.build g));
  bench "substrate:1-index" (fun () -> ignore (One_index.build g));
  bench "substrate:1-index-paige-tarjan" (fun () -> ignore (Paige_tarjan.build_one_index g));
  (let deep =
     let b = Builder.create () in
     let node = ref (Builder.root b) in
     for _ = 1 to 2000 do
       node := Builder.add_child b ~parent:!node "a"
     done;
     Builder.build b
   in
   bench "substrate:deep-chain-hash-refinement" (fun () -> ignore (One_index.build deep)));
  (* Table 1: updates. *)
  bench "table1:update-local-similarity" (fun () ->
      ignore (Dk_update.update_local_similarity dk ~u:iu ~v:iv));
  bench_resource "table1:D(k)-add-edge"
    ~allocate:(fun () -> Dk_index.build (Data_graph.copy g) ~reqs)
    ~runs:n_updates
    (fun idx -> List.iter (fun (u, v) -> Dk_update.add_edge idx u v) edges);
  bench_resource "table1:A(2)-add-edge"
    ~allocate:(fun () -> A_k_index.build (Data_graph.copy g) ~k:2)
    ~runs:n_updates
    (fun idx -> List.iter (fun (u, v) -> Ak_update.add_edge idx ~k:2 u v) edges);
  bench_resource "table1:data-add-edge"
    ~allocate:(fun () -> Data_graph.copy g)
    ~runs:n_updates
    (fun h -> List.iter (fun (u, v) -> Data_graph.add_edge h u v) edges);
  bench "extB:demote-rebuild" (fun () -> ignore (Dk_index.rebuild dk ~reqs));
  (* Socket serving: an in-process dkserve instance on an ephemeral
     port (2 query workers + 1 mutator, the default deployment shape),
     driven by C concurrent client connections issuing synchronous
     query-path requests from the pinned workload.  ns/op is wall
     clock over the whole request volume — wire codec, loopback TCP,
     queueing and evaluation included.  Latency entry is the p99 of
     per-request round-trip times on one connection. *)
  (let port_box = Atomic.make 0 in
   let srv =
     Domain.spawn (fun () ->
         Server.run ~handle_signals:false
           ~on_ready:(fun p -> Atomic.set port_box p)
           {
             Server.default_config with
             port = 0;
             workers = 2;
             queue_depth = 1024;
             deadline_s = 0.0;
             idle_timeout_s = 0.0;
             read_progress_deadline_s = 0.5;
           }
           dk
         |> Result.get_ok)
   in
   while Atomic.get port_box = 0 do
     Unix.sleepf 0.002
   done;
   let port = Atomic.get port_box in
   let qstrings = Array.of_list query_paths in
   let request i =
     Wire.Query_path
       { flags = { no_cache = false }; labels = qstrings.(i mod Array.length qstrings) }
   in
   let expect_result i = function
     | Wire.Result _ -> ()
     | Wire.Error_reply { message; _ } ->
       failwith (Printf.sprintf "serve bench request %d: %s" i message)
     | _ -> failwith (Printf.sprintf "serve bench request %d: unexpected reply" i)
   in
   (* One timed pass: connect first, then a barrier, then the clock. *)
   let socket_pass ~conns ~requests =
     let ready = Atomic.make 0 and go = Atomic.make false in
     let doms =
       List.init conns (fun d ->
           Domain.spawn (fun () ->
               let c = Client.connect ~port () in
               Atomic.incr ready;
               while not (Atomic.get go) do
                 Domain.cpu_relax ()
               done;
               let i = ref d in
               while !i < requests do
                 expect_result !i (Client.call c (request !i));
                 i := !i + conns
               done;
               Client.close c))
     in
     while Atomic.get ready < conns do
       Unix.sleepf 0.001
     done;
     let t0 = now_ns () in
     Atomic.set go true;
     List.iter Domain.join doms;
     (now_ns () -. t0) /. float_of_int requests
   in
   let reps = if !smoke then 2 else 5 in
   let requests = if !smoke then 60 else 600 in
   List.iter
     (fun conns ->
       let name = Printf.sprintf "serve:socket-throughput-c%d" conns in
       let samples = Array.init reps (fun _ -> socket_pass ~conns ~requests) in
       Array.sort compare samples;
       let ns = samples.(0) in
       Printf.printf "  %-44s %12.0f ns/req\n%!" name ns;
       entries := { name; after_ns = ns; baseline_ns = None; rss_bytes = None } :: !entries)
     [ 1; 2; 4 ];
   (let requests = if !smoke then 60 else 1000 in
    let lat = Array.make requests 0.0 in
    let p99 () =
      let c = Client.connect ~port () in
      for i = 0 to requests - 1 do
        let t0 = now_ns () in
        expect_result i (Client.call c (request i));
        lat.(i) <- now_ns () -. t0
      done;
      Client.close c;
      Array.sort compare lat;
      lat.(requests * 99 / 100)
    in
    let samples = Array.init (if !smoke then 1 else 3) (fun _ -> p99 ()) in
    Array.sort compare samples;
    let ns = samples.(0) in
    Printf.printf "  %-44s %12.0f ns\n%!" "serve:socket-p99-latency" ns;
    entries :=
      { name = "serve:socket-p99-latency"; after_ns = ns; baseline_ns = None; rss_bytes = None } :: !entries);
   (* Pipelined throughput: one connection keeping [depth] requests in
      flight, replies matched by id (the inline fast path may reorder
      them).  The contrast with socket-throughput-c1 is the headroom
      the serving path has beyond one-request-per-RTT clients. *)
   (let depth = 8 in
    let pipelined_pass ~requests =
      let c = Client.connect ~port () in
      let inflight = Hashtbl.create (2 * depth) in
      let sent = ref 0 and completed = ref 0 in
      let t0 = now_ns () in
      while !completed < requests do
        while !sent < requests && Hashtbl.length inflight < depth do
          Hashtbl.replace inflight (Client.send c (request !sent)) !sent;
          incr sent
        done;
        let r = Client.recv c in
        (match Hashtbl.find_opt inflight r.Wire.id with
        | Some i ->
          Hashtbl.remove inflight r.Wire.id;
          expect_result i r.Wire.msg
        | None -> failwith "pipelined bench: reply with unknown id");
        incr completed
      done;
      let ns = (now_ns () -. t0) /. float_of_int requests in
      Client.close c;
      ns
    in
    let reps = if !smoke then 2 else 5 in
    let requests = if !smoke then 60 else 600 in
    let samples = Array.init reps (fun _ -> pipelined_pass ~requests) in
    Array.sort compare samples;
    let ns = samples.(0) in
    let name = Printf.sprintf "serve:pipelined-throughput-k%d" depth in
    Printf.printf "  %-44s %12.0f ns/req\n%!" name ns;
    entries := { name; after_ns = ns; baseline_ns = None; rss_bytes = None } :: !entries);
   (* Chaos overhead: p99 round-trip of a well-behaved connection routed
      through the chaos proxy (pass-through spec) while a slow-loris
      client holds a half-written frame open against the server,
      vs. the direct no-chaos p99 measured back to back.  The loris is
      evicted by the read-progress deadline; the well-behaved p99 is
      expected within 2x of the direct baseline (reported as
      baseline/after so the JSON carries the ratio, warned past 2x —
      shared CI machines make a hard failure here too flaky). *)
   (let requests = if !smoke then 60 else 1000 in
    let lat = Array.make requests 0.0 in
    let p99_via port =
      let c = Client.connect ~port () in
      for i = 0 to requests - 1 do
        let t0 = now_ns () in
        expect_result i (Client.call c (request i));
        lat.(i) <- now_ns () -. t0
      done;
      Client.close c;
      Array.sort compare lat;
      lat.(requests * 99 / 100)
    in
    let samples = Array.init (if !smoke then 1 else 3) (fun _ -> p99_via port) in
    Array.sort compare samples;
    let direct = samples.(0) in
    let px = Chaos.create ~seed:1 ~upstream:("127.0.0.1", port) Chaos.no_faults in
    let pxd = Domain.spawn (fun () -> Chaos.run px) in
    (* The slow loris: half a length prefix, then silence. *)
    let loris = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect loris (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let sent = Unix.write_substring loris "\000\000" 0 2 in
    if sent <> 2 then failwith "chaos bench: loris write";
    let samples =
      Array.init (if !smoke then 1 else 3) (fun _ -> p99_via (Chaos.port px))
    in
    Array.sort compare samples;
    let chaotic = samples.(0) in
    (* The loris must be evicted by the read-progress deadline. *)
    let evicted () =
      let c = Client.connect ~port () in
      let n =
        match Client.call c Wire.Stats with
        | Wire.Stats_reply kvs ->
          (match List.assoc_opt "evicted_slow_clients" kvs with
          | Some v -> int_of_string v
          | None -> failwith "chaos bench: no evicted_slow_clients stat")
        | _ -> failwith "chaos bench: stats not answered"
      in
      Client.close c;
      n
    in
    let t0 = Unix.gettimeofday () in
    while evicted () < 1 do
      if Unix.gettimeofday () -. t0 > 10.0 then
        failwith "chaos bench: slow-loris client not evicted within 10s";
      Unix.sleepf 0.05
    done;
    (try Unix.close loris with Unix.Unix_error _ -> ());
    Chaos.stop px;
    Domain.join pxd;
    let ratio = chaotic /. direct in
    Printf.printf "  %-44s %12.0f ns  (direct %.0f ns, x%.2f)%s\n%!"
      "serve:chaos-overhead" chaotic direct ratio
      (if ratio > 2.0 then "  WARNING: > 2x no-chaos baseline" else "");
    entries :=
      { name = "serve:chaos-overhead"; after_ns = chaotic;
        baseline_ns = Some direct; rss_bytes = None } :: !entries);
   (* Stop the server over its own wire and reclaim the domain. *)
   let c = Client.connect ~port () in
   (match Client.call c Wire.Shutdown with
   | Wire.Ok_reply _ -> ()
   | _ -> failwith "serve bench: shutdown not acknowledged");
   Client.close c;
   Domain.join srv);
  (* WAL overhead: acknowledged-write throughput through the whole
     server (socket, mutator, apply, WAL append + sync) under each
     sync policy, against a no-WAL baseline.  Each variant serves a
     fresh index (writes mutate it) and alternates add/remove of one
     absent ID/IDREF edge, so every request is an acknowledged
     mutation and the state returns to its start after every
     even-length pass.  All variants are live at once (so the
     process-wide domain count — which sets the stop-the-world
     minor-GC sync cost — is identical during every pass) and the
     timed passes are interleaved with the starting variant rotated
     each rep, so ambient-load drift and deferred page writeback hit
     every policy alike instead of biasing a fixed position in the
     cycle; checkpoint triggers are disabled so the number isolates
     the WAL cost (checkpoint I/O is on a background domain and off
     the ack path by construction). *)
  (let wal_requests = if !smoke then 40 else 500 in
   let wal_reps = if !smoke then 1 else 16 in
   let eu, ev =
     match List.filter (fun (u, v) -> not (Data_graph.has_edge g u v)) edges with
     | e :: _ -> e
     | [] -> failwith "wal bench: no absent update edge"
   in
   let mk_variant name sync =
     let idx = Dk_index.build (Data_graph.copy g) ~reqs in
     let dir = Filename.temp_file "dkwal" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o755;
     let durability =
       Option.map
         (fun sync ->
           Checkpoint.start
             {
               (Checkpoint.default_config ~dir) with
               sync;
               checkpoint_records = 0;
               checkpoint_bytes = 0;
               checkpoint_interval_s = 0.0;
             }
             idx)
         sync
     in
     let port_box = Atomic.make 0 in
     let srv =
       Domain.spawn (fun () ->
           Server.run ~handle_signals:false ?durability
             ~on_ready:(fun p -> Atomic.set port_box p)
             {
               Server.default_config with
               port = 0;
               workers = 1;
               queue_depth = 1024;
               deadline_s = 0.0;
               idle_timeout_s = 0.0;
             }
             idx
           |> Result.get_ok)
     in
     while Atomic.get port_box = 0 do
       Unix.sleepf 0.002
     done;
     let c = Client.connect ~port:(Atomic.get port_box) () in
     (name, dir, c, srv, ref infinity)
   in
   let pass c =
     let t0 = now_ns () in
     for i = 0 to wal_requests - 1 do
       let req =
         if i land 1 = 0 then Wire.Add_edge { u = eu; v = ev }
         else Wire.Remove_edge { u = eu; v = ev }
       in
       match Client.call c req with
       | Wire.Ok_reply _ -> ()
       | Wire.Error_reply { message; _ } -> failwith ("wal bench: " ^ message)
       | _ -> failwith "wal bench: unexpected reply"
     done;
     (now_ns () -. t0) /. float_of_int wal_requests
   in
   let variants =
     [
       mk_variant "serve:wal-overhead-nowal" None;
       mk_variant "serve:wal-overhead-sync-never" (Some Wal.Never);
       mk_variant "serve:wal-overhead-sync-interval" (Some (Wal.Interval 64));
       mk_variant "serve:wal-overhead-sync-always" (Some Wal.Always);
     ]
   in
   let variants_arr = Array.of_list variants in
   let nv = Array.length variants_arr in
   List.iter (fun (_, _, c, _, _) -> ignore (pass c)) variants;
   for rep = 0 to wal_reps - 1 do
     for k = 0 to nv - 1 do
       let _, _, c, _, best = variants_arr.((rep + k) mod nv) in
       let ns = pass c in
       if ns < !best then best := ns
     done
   done;
   List.iter
     (fun (name, dir, c, srv, best) ->
       (match Client.call c Wire.Shutdown with
       | Wire.Ok_reply _ -> ()
       | _ -> failwith "wal bench: shutdown not acknowledged");
       Client.close c;
       Domain.join srv;
       rm_rf dir;
       Printf.printf "  %-44s %12.0f ns/write\n%!" name !best;
       entries := { name; after_ns = !best; baseline_ns = None; rss_bytes = None } :: !entries)
     variants);
  (* Scrub overhead: p99 query round-trip against a durable server
     whose integrity scrubber re-reads the whole data directory every
     50 ms — far more aggressive than any production cadence — vs the
     same server shape with scrubbing off, measured back to back.
     Digest/index access rides the mutator queue and the file re-reads
     ride the integrity domain, so the read path should see almost
     nothing: warned past 1.5x (shared CI machines make a hard failure
     too flaky). *)
  (let requests = if !smoke then 60 else 1000 in
   let lat = Array.make requests 0.0 in
   let qstrings = Array.of_list query_paths in
   let request i =
     Wire.Query_path
       { flags = { no_cache = false }; labels = qstrings.(i mod Array.length qstrings) }
   in
   let wedges =
     List.filteri
       (fun i _ -> i < 8)
       (List.filter (fun (u, v) -> not (Data_graph.has_edge g u v)) edges)
   in
   let measure ~scrub =
     let idx = Dk_index.build (Data_graph.copy g) ~reqs in
     let dir = Filename.temp_file "dkscrub" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o755;
     let durability =
       Checkpoint.start { (Checkpoint.default_config ~dir) with sync = Wal.Interval 64 } idx
     in
     let port_box = Atomic.make 0 in
     let srv =
       Domain.spawn (fun () ->
           Server.run ~handle_signals:false ~durability
             ~on_ready:(fun p -> Atomic.set port_box p)
             {
               Server.default_config with
               port = 0;
               workers = 1;
               queue_depth = 1024;
               deadline_s = 0.0;
               idle_timeout_s = 0.0;
               scrub_interval_s = (if scrub then 0.05 else 0.0);
             }
             idx
           |> Result.get_ok)
     in
     while Atomic.get port_box = 0 do
       Unix.sleepf 0.002
     done;
     let c = Client.connect ~port:(Atomic.get port_box) () in
     (* give the scrubber real at-rest bytes: logged writes on top of
        the initial checkpoint (added then removed, so the served
        state is identical across variants) *)
     List.iter
       (fun (u, v) ->
         List.iter
           (fun req ->
             match Client.call c req with
             | Wire.Ok_reply _ -> ()
             | _ -> failwith "scrub bench: write refused")
           [ Wire.Add_edge { u; v }; Wire.Remove_edge { u; v } ])
       wedges;
     (if scrub then
        (* only time once passes are demonstrably happening *)
        let deadline = Unix.gettimeofday () +. 10.0 in
        let passes () =
          match Client.call c Wire.Stats with
          | Wire.Stats_reply kvs ->
            (match List.assoc_opt "scrub_passes" kvs with
            | Some v -> int_of_string v
            | None -> failwith "scrub bench: no scrub_passes stat")
          | _ -> failwith "scrub bench: stats not answered"
        in
        while passes () < 2 do
          if Unix.gettimeofday () > deadline then failwith "scrub bench: scrubber idle";
          Unix.sleepf 0.02
        done);
     let p99 () =
       for i = 0 to requests - 1 do
         let t0 = now_ns () in
         (match Client.call c (request i) with
         | Wire.Result _ -> ()
         | Wire.Error_reply { message; _ } -> failwith ("scrub bench: " ^ message)
         | _ -> failwith "scrub bench: unexpected reply");
         lat.(i) <- now_ns () -. t0
       done;
       Array.sort compare lat;
       lat.(requests * 99 / 100)
     in
     let samples = Array.init (if !smoke then 1 else 3) (fun _ -> p99 ()) in
     Array.sort compare samples;
     let ns = samples.(0) in
     (match Client.call c Wire.Shutdown with
     | Wire.Ok_reply _ -> ()
     | _ -> failwith "scrub bench: shutdown not acknowledged");
     Client.close c;
     Domain.join srv;
     rm_rf dir;
     ns
   in
   let direct = measure ~scrub:false in
   let scrubbed = measure ~scrub:true in
   let ratio = scrubbed /. direct in
   Printf.printf "  %-44s %12.0f ns  (no-scrub %.0f ns, x%.2f)%s\n%!"
     "serve:scrub-overhead" scrubbed direct ratio
     (if ratio > 1.5 then "  WARNING: > 1.5x no-scrub baseline" else "");
   entries :=
     {
       name = "serve:scrub-overhead";
       after_ns = scrubbed;
       baseline_ns = Some direct;
       rss_bytes = None;
     }
     :: !entries);
  (* Replication: aggregate read throughput against a primary plus 0/1/2
     caught-up replicas (driver domains round-robin their connections
     over the endpoints), and p99 replication lag in bytes-behind
     sampled on the replica after every acknowledged write.  All
     servers are in-process; on a host with fewer cores than domains
     the scaling entries measure scheduling overhead rather than
     speedup — same caveat as the batch-throughput family, and the
     macro section records the core count. *)
  (let mk_dir () =
     let dir = Filename.temp_file "dkrepl" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o755;
     dir
   in
   let empty_index () =
     let pool = Label.Pool.create () in
     let root = Label.Pool.intern pool Label.root_name in
     let eg = Data_graph.make ~pool ~labels:[| root |] ~edges:[] () in
     Dk_index.build eg ~reqs:[]
   in
   let start_server ?replica_of index =
     let dir = mk_dir () in
     let durability =
       Checkpoint.start { (Checkpoint.default_config ~dir) with sync = Wal.Never } index
     in
     let port_box = Atomic.make 0 in
     let srv =
       Domain.spawn (fun () ->
           Server.run ~handle_signals:false ~durability ?replica_of ~hub_heartbeat_s:0.05
             ~on_ready:(fun p -> Atomic.set port_box p)
             {
               Server.default_config with
               port = 0;
               workers = 1;
               queue_depth = 1024;
               deadline_s = 0.0;
               idle_timeout_s = 0.0;
             }
             index
           |> Result.get_ok)
     in
     while Atomic.get port_box = 0 do
       Unix.sleepf 0.002
     done;
     (dir, Atomic.get port_box, srv)
   in
   let pdir, pport, psrv = start_server (Dk_index.build (Data_graph.copy g) ~reqs) in
   let replica i =
     start_server
       ~replica_of:
         (Dkindex_server.Replication.default_rconfig ~host:"127.0.0.1" ~port:pport
            ~replica_id:i)
       (empty_index ())
   in
   let r1dir, r1port, r1srv = replica 1 in
   let r2dir, r2port, r2srv = replica 2 in
   let wait_caught_up port =
     let c = Client.connect ~port () in
     let deadline = Unix.gettimeofday () +. 120.0 in
     let rec go () =
       let kvs =
         match Client.call c Wire.Stats with
         | Wire.Stats_reply kvs -> kvs
         | _ -> failwith "replication bench: Stats failed"
       in
       let v k = Option.value (List.assoc_opt k kvs) ~default:"" in
       if
         v "replication_connected" = "true"
         && v "replication_bytes_behind" = "0"
         && v "replication_applied_seq" <> "-1"
       then Client.close c
       else if Unix.gettimeofday () > deadline then
         failwith "replication bench: replica catch-up timed out"
       else begin
         Unix.sleepf 0.02;
         go ()
       end
     in
     go ()
   in
   wait_caught_up r1port;
   wait_caught_up r2port;
   let qstrings = Array.of_list query_paths in
   let request i =
     Wire.Query_path
       { flags = { no_cache = false }; labels = qstrings.(i mod Array.length qstrings) }
   in
   let expect_result i = function
     | Wire.Result _ -> ()
     | Wire.Error_reply { message; _ } ->
       failwith (Printf.sprintf "replication bench request %d: %s" i message)
     | _ -> failwith (Printf.sprintf "replication bench request %d: unexpected reply" i)
   in
   let read_pass ~ports ~requests =
     let conns = 4 in
     let n = Array.length ports in
     let ready = Atomic.make 0 and go = Atomic.make false in
     let doms =
       List.init conns (fun d ->
           Domain.spawn (fun () ->
               let c = Client.connect ~port:ports.(d mod n) () in
               Atomic.incr ready;
               while not (Atomic.get go) do
                 Domain.cpu_relax ()
               done;
               let i = ref d in
               while !i < requests do
                 expect_result !i (Client.call c (request !i));
                 i := !i + conns
               done;
               Client.close c))
     in
     while Atomic.get ready < conns do
       Unix.sleepf 0.001
     done;
     let t0 = now_ns () in
     Atomic.set go true;
     List.iter Domain.join doms;
     (now_ns () -. t0) /. float_of_int requests
   in
   let reps = if !smoke then 2 else 5 in
   let requests = if !smoke then 60 else 600 in
   let all_ports = [| pport; r1port; r2port |] in
   for nendp = 1 to 3 do
     let name = Printf.sprintf "serve:replica-read-scaling-%d" nendp in
     let ports = Array.sub all_ports 0 nendp in
     let samples = Array.init reps (fun _ -> read_pass ~ports ~requests) in
     Array.sort compare samples;
     let ns = samples.(0) in
     Printf.printf "  %-44s %12.0f ns/req\n%!" name ns;
     entries := { name; after_ns = ns; baseline_ns = None; rss_bytes = None } :: !entries
   done;
   (* Lag: alternate add/remove of one absent ID/IDREF edge (every
      request is an acknowledged mutation, state returns to its start),
      sampling the replica's bytes-behind right after each ack. *)
   (let n_writes = if !smoke then 30 else 300 in
    let eu, ev =
      match List.filter (fun (u, v) -> not (Data_graph.has_edge g u v)) edges with
      | e :: _ -> e
      | [] -> failwith "replication bench: no absent update edge"
    in
    let wc = Client.connect ~port:pport () in
    let sc = Client.connect ~port:r1port () in
    let lags = Array.make n_writes 0.0 in
    for i = 0 to n_writes - 1 do
      let req =
        if i land 1 = 0 then Wire.Add_edge { u = eu; v = ev }
        else Wire.Remove_edge { u = eu; v = ev }
      in
      (match Client.call wc req with
      | Wire.Ok_reply _ -> ()
      | Wire.Error_reply { message; _ } -> failwith ("replication bench write: " ^ message)
      | _ -> failwith "replication bench write: unexpected reply");
      let kvs =
        match Client.call sc Wire.Stats with
        | Wire.Stats_reply kvs -> kvs
        | _ -> failwith "replication bench: Stats failed"
      in
      lags.(i) <-
        float_of_string
          (Option.value (List.assoc_opt "replication_bytes_behind" kvs) ~default:"0")
    done;
    Client.close wc;
    Client.close sc;
    Array.sort compare lags;
    let p99 = lags.(n_writes * 99 / 100) in
    Printf.printf "  %-44s %12.0f bytes behind (p99)\n%!" "serve:replication-lag" p99;
    entries := { name = "serve:replication-lag"; after_ns = p99; baseline_ns = None; rss_bytes = None } :: !entries);
   let stop port srv dir =
     let c = Client.connect ~port () in
     (match Client.call c Wire.Shutdown with
     | Wire.Ok_reply _ -> ()
     | _ -> failwith "replication bench: shutdown not acknowledged");
     Client.close c;
     Domain.join srv;
     rm_rf dir
   in
   (* Replicas first: stopping the primary first would put their
      tailers into reconnect loops for no reason. *)
   stop r2port r2srv r2dir;
   stop r1port r1srv r1dir;
   stop pport psrv pdir);

  (* ---------------------------------------------------------------- *)
  (* scale:xl — the out-of-core tier.  Each bench re-execs this binary
     with [--xl-child NAME --xl-dir DIR] so its peak RSS (VmHWM) and
     peak OCaml heap start clean instead of inheriting the macro pass's
     high-water marks; the child prints "<ns> <rss_bytes> <heap_bytes>"
     on stdout. *)
  let run_child name dir =
    let r, w = Unix.pipe () in
    let args =
      [|
        Sys.executable_name; "--xl-child"; name; "--xl-dir"; dir;
        "--xl-edges"; string_of_int !xl_edges;
        "--xl-heap-cap-mb"; string_of_int !xl_heap_cap_mb;
      |]
    in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith (name ^ ": xl bench child failed"));
    Scanf.sscanf line "%f %d %d" (fun ns rss heap -> (ns, rss, heap))
  in
  let xl_facts = ref [] in
  if !xl then begin
    let dir = Filename.temp_file "dkxl" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let record name =
      let ns, rss, heap = run_child name dir in
      Printf.printf "  %-34s %12.0f ns   rss %5d MiB   heap %5d MiB\n%!" name ns
        (rss / 1048576) (heap / 1048576);
      entries := { name; after_ns = ns; baseline_ns = None; rss_bytes = Some rss } :: !entries;
      (ns, rss, heap)
    in
    Printf.printf "scale:xl series: ~%d edges (fresh process per bench)\n%!" !xl_edges;
    ignore (record "xl:datagen-stream");
    let _, _, build_heap = record "xl:build-external" in
    ignore (record "xl:open-mmap");
    ignore (record "xl:load-index-mmap");
    ignore (record "xl:query-mmap");
    (* Shape facts, read from the finished container (O(1) open). *)
    let g = Container.open_graph (Filename.concat dir "xl.dkc") in
    xl_facts :=
      [
        ("xl_data_nodes", string_of_int (Data_graph.n_nodes g));
        ("xl_data_edges", string_of_int (Data_graph.n_edges g));
        ( "xl_container_bytes",
          string_of_int (Unix.stat (Filename.concat dir "xl.dkc")).Unix.st_size );
        ("xl_build_peak_heap_bytes", string_of_int build_heap);
        ("xl_heap_cap_bytes", string_of_int (!xl_heap_cap_mb * 1024 * 1024));
      ];
    rm_rf dir
  end;
  let entries = List.rev !entries in
  (* Macro pass facts. *)
  let query_cost =
    List.fold_left
      (fun acc q -> acc + Cost.total (Query_eval.eval_path dk q).Query_eval.cost)
      0 queries
  in
  let gstats = Data_graph.stats g in
  let macro =
    [
      ("data_nodes", string_of_int gstats.Data_graph.nodes);
      ("data_edges", string_of_int gstats.Data_graph.edges);
      ("dk_index_nodes", string_of_int (Index_graph.n_nodes dk));
      ("dk_index_edges", string_of_int (Index_graph.n_edges dk));
      ("a2_index_nodes", string_of_int (Index_graph.n_nodes a2));
      ("dk_build_ms", Printf.sprintf "%.1f" build_ms);
      ("dk_build_allocated_words", Printf.sprintf "%.0f" build_words);
      ("workload_query_cost_visits", string_of_int query_cost);
      ("n_update_edges", string_of_int n_updates);
      ("host_recommended_domains", string_of_int (Domain.recommended_domain_count ()));
      ("host_total_ram_bytes", string_of_int (host_total_ram_bytes ()));
      ("page_size_bytes", string_of_int (page_size_bytes ()));
      ("peak_rss_bytes", string_of_int (peak_rss_bytes ()));
      ("batch_queries", string_of_int (4 * List.length queries));
    ]
    @ !plan_facts
    @ !xl_facts
  in
  Printf.printf "  macro: %s\n%!"
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) macro));
  if !smoke then begin
    assert_refine_allocation ();
    assert_framing_allocation ();
    assert_publish_keeps_overflow ();
    (* Exercise the update path end to end so harness bitrot (not just
       compile rot) fails the smoke run. *)
    let idx = Dk_index.build (Data_graph.copy g) ~reqs in
    List.iter (fun (u, v) -> Dk_update.add_edge idx u v) edges;
    Index_graph.check_invariants idx;
    (* Batch driver determinism: a 2-domain fan-out must reproduce the
       sequential answers bit for bit. *)
    let batch = queries @ queries in
    let seq = Query_eval.eval_batch ~domains:1 ~cache:false dk batch in
    let par = Query_eval.eval_batch ~domains:2 ~cache:false dk batch in
    Array.iteri
      (fun i r ->
        if
          r.Query_eval.nodes <> par.(i).Query_eval.nodes
          || Cost.total r.Query_eval.cost <> Cost.total par.(i).Query_eval.cost
        then failwith (Printf.sprintf "eval_batch diverged from sequential at query %d" i))
      seq;
    Printf.printf "trajectory smoke: OK\n%!"
  end;
  if not !no_out then begin
    let entries =
      if String.equal !baseline_file "" then entries
      else begin
        let table = read_baseline !baseline_file in
        (* Entries that measured their own baseline in-process (e.g.
           chaos-overhead's direct p99) keep it when the merged file
           has nothing for them. *)
        List.map
          (fun e ->
            match Hashtbl.find_opt table e.name with
            | Some _ as b -> { e with baseline_ns = b }
            | None -> e)
          entries
      end
    in
    write_json !out_file ~entries ~macro;
    Printf.printf "wrote %s\n%!" !out_file
  end
