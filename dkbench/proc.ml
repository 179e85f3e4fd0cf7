(* dkindex-server child processes and the files they leave behind.
   Every spawned pid is registered so that [kill_all] can stop and reap
   them on any exit path. *)

type server = { pid : int; port : int }

let live : int list ref = ref []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).st_kind with
  | S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Data directories are flat: checkpoints, sidecars, WAL segments. *)
let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

let rec dir_bytes p =
  match (Unix.lstat p).st_kind with
  | S_DIR -> Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat p f)) 0 (Sys.readdir p)
  | _ -> (Unix.lstat p).st_size
  | exception Unix.Unix_error (ENOENT, _, _) -> 0

let free_port () =
  let s = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.bind s (ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname s with ADDR_INET (_, p) -> p | _ -> assert false

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (EINTR, _, _) -> waitpid_noeintr flags pid

let alive pid = try fst (waitpid_noeintr [ WNOHANG ] pid) = 0 with Unix.Unix_error _ -> false

(* [env] adds variables to the inherited environment; stdout and
   stderr of the server go to [log]. *)
let spawn ~exe ~args ~env ~log =
  let port = free_port () in
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let argv = Array.of_list ((exe :: args) @ [ "--port"; string_of_int port ]) in
  let env = Array.append (Array.of_list env) (Unix.environment ()) in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.create_process_env exe argv env Unix.stdin fd fd
  in
  live := pid :: !live;
  { pid; port }

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (waitpid_noeintr [] s.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) s.pid) !live

let kill_all () = List.iter (fun pid -> kill { pid; port = 0 }) !live

(* The server's resident set (VmRSS), in MiB. *)
let rss_mb s =
  let kb =
    try
      In_channel.with_open_text
        (Printf.sprintf "/proc/%d/status" s.pid)
        (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> 0
            | Some l when String.starts_with ~prefix:"VmRSS:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> 0
  in
  float_of_int kb /. 1024.0
