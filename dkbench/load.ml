(* The load generator: a closed-loop reader (one outstanding query)
   and an optional open-loop writer, multiplexed on one thread.  Writes are sent when due, whatever the state of earlier
   writes, and each is timed from its due time; the writer's own
   lateness is kept apart so a stalled generator shows as itself. *)

module Wire = Dkindex_server.Wire

type reader = { conn : Conn.t; next : unit -> int; mutable q : int; mutable t_send : float; mutable busy : bool }

type writer = {
  wconn : Conn.t;
  writes : Wire.request array;
  due : float array;
  ids : (int, int) Hashtbl.t;  (* request id -> write index *)
  mutable k : int;  (* next write to send *)
  mutable unacked : int;
}

type outcome = {
  rtt_us : Stat.buf;  (* answered queries, send -> reply *)
  windows : Stat.buf array;  (* the same, per [window_s] of the run by reply time *)
  mutable reads : int;  (* queries sent *)
  mutable read_fail : int;
  write_ms : float array;  (* per write, due -> ack; nan unless acknowledged *)
  late_ms : Stat.buf;  (* writer: due -> actually sent *)
  mutable writes : int;  (* writes sent *)
  mutable write_fail : int;
  mutable elapsed : float;  (* first send -> last reply *)
  mutable error : string option;  (* transport failure that ended the run *)
}

(* Query round trips are also kept per window of the run, so that a
   figure can be the median over windows: a host slowdown that spans a
   few windows then moves it less than it moves a pooled figure. *)
let window_s = 1.0

let reader conn next = { conn; next; q = 0; t_send = 0.0; busy = false }

(* [check q reply] sees every answered query; refusals and error
   replies are counted as failures instead.  [tick] runs between
   events (GC ring polling).  With [trace], each answered query is
   recorded as a client span. *)
let run ~queries ~reader:r ?writer:wopt ~rate ~seconds ~check ~tick ?trace () =
  let reqs = Array.map Inputs.request queries in
  let n_writes = match wopt with Some (_, w) -> Array.length w | None -> 0 in
  let o =
    {
      rtt_us = Stat.buf ();
      windows = Array.init (max 1 (int_of_float (seconds /. window_s))) (fun _ -> Stat.buf ());
      reads = 0;
      read_fail = 0;
      write_ms = Array.make n_writes Float.nan;
      late_ms = Stat.buf ();
      writes = 0;
      write_fail = 0;
      elapsed = 0.0;
      error = None;
    }
  in
  let t0 = Stat.now () in
  let t_end = t0 +. seconds in
  let w =
    Option.map
      (fun (wconn, writes) ->
        {
          wconn;
          writes;
          due = Array.init n_writes (fun i -> t0 +. (float_of_int i /. rate));
          ids = Hashtbl.create 64;
          k = 0;
          unacked = 0;
        })
      wopt
  in
  let send_read r =
    o.reads <- o.reads + 1;
    r.q <- r.next ();
    r.t_send <- Stat.now ();
    ignore (Conn.send r.conn reqs.(r.q));
    r.busy <- true
  in
  let recv_read r =
    let d = Conn.recv r.conn in
    let t = Stat.now () in
    r.busy <- false;
    (match Inputs.reply_nodes d.msg with
    | Some _ ->
      Stat.add o.rtt_us ((t -. r.t_send) *. 1e6);
      let win = int_of_float ((t -. t0) /. window_s) in
      if win < Array.length o.windows then Stat.add o.windows.(win) ((t -. r.t_send) *. 1e6);
      Option.iter (fun tr -> Trace.record tr "client.query" ~req:(Stat.count o.rtt_us) ~start:r.t_send ~stop:t) trace;
      check r.q d.msg
    | None -> o.read_fail <- o.read_fail + 1);
    if t < t_end then send_read r
  in
  let send_write w =
    let i = w.k in
    let t = Stat.now () in
    Stat.add o.late_ms ((t -. w.due.(i)) *. 1e3);
    Hashtbl.replace w.ids (Conn.send w.wconn w.writes.(i)) i;
    w.k <- i + 1;
    w.unacked <- w.unacked + 1;
    o.writes <- o.writes + 1
  in
  let recv_ack w =
    let d = Conn.recv w.wconn in
    let t = Stat.now () in
    let i = Hashtbl.find w.ids d.id in
    w.unacked <- w.unacked - 1;
    match d.msg with
    | Wire.Ok_reply _ ->
      o.write_ms.(i) <- (t -. w.due.(i)) *. 1e3
    | _ -> o.write_fail <- o.write_fail + 1
  in
  let pending () =
    r.busy
    || match w with Some w -> w.k < n_writes || w.unacked > 0 | None -> false
  in
  (try
     send_read r;
     while pending () do
       let now = Stat.now () in
       tick now;
       match w with
       | None -> recv_read r
       | Some w ->
         while w.k < n_writes && w.due.(w.k) <= Stat.now () do
           send_write w
         done;
         let timeout = if w.k < n_writes then max 0.0 (w.due.(w.k) -. Stat.now ()) else 0.05 in
         let fds = if r.busy then [ r.conn.Conn.fd ] else [] in
         let fds = if w.unacked > 0 then w.wconn.Conn.fd :: fds else fds in
         if fds = [] then Unix.sleepf timeout
         else begin
           let ready, _, _ =
             try Unix.select fds [] [] timeout with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
           in
           List.iter (fun fd -> if fd = w.wconn.Conn.fd then recv_ack w else recv_read r) ready
         end
     done
   with e ->
     (* A refused, reset or timed-out connection ends the run; what is
        still outstanding counts as failed. *)
     o.error <- Some (Printexc.to_string e);
     if r.busy then o.read_fail <- o.read_fail + 1;
     Option.iter
       (fun w ->
         o.write_fail <- o.write_fail + w.unacked + (n_writes - w.k);
         o.writes <- o.writes + (n_writes - w.k))
       w);
  o.elapsed <- Stat.now () -. t0;
  o
