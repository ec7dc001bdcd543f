(* The server layers, measured by the ruleset-cold traced run:
   alveared in its own process on a Unix socket, driven open loop at a
   fixed rate over one connection by a sender thread and a receiver
   thread. Each request is timed from when it was due, so a stall also
   charges the requests queued behind it.

   The mix: one ruleset scan in four (the 16 served Snort rules over a
   16 KiB slice), about one compile in fifty of a pattern the daemon
   has not seen, and single-pattern scans of a served rule over a
   16 KiB slice for the rest. Every reply is checked against the
   in-process [Service.handle] of the same request. *)

module P = Alveare_server.Protocol
module Service = Alveare_server.Service
module Metrics = Alveare_server.Metrics
module Compile = Alveare_compiler.Compile
module Rng = Alveare_workloads.Rng

let now = Unix.gettimeofday
let median = Library.median

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let daemon_exe = "_build/default/bin/alveared.exe"

let rate = 150.0
let deadline_ms = 1000
let n_slices = 32
let slice_bytes = 16384
let warmup_s = 2.5

(* 6.7 s at 150 req/s puts ten requests beyond p99 of the generator's
   lateness. *)
let measured_s = 6.7

type kind = Single of int | Rules | Compile_new of string

type desc = {
  kind : kind;
  slice : int;
}

type inputs = {
  rules : (string * string) list;
  slices : string array;
  fresh : string array;  (** patterns never sent before *)
}

(* The in-process reference: the same Service configuration the daemon
   runs with by default, on its own cache. *)
let service () =
  Service.create
    ~config:{ Service.default_config with Service.cache = Compile.create_cache () }
    (Metrics.create ())

(* The compile requests carry patterns the daemon has not seen and
   admits: a refusal would count as a failed request. *)
let make_inputs svc seed =
  let rules = Gen.serve_specs () in
  let rng = Rng.create ((seed * 1_000_003) + 17) in
  let asts =
    List.mapi (fun i (_, p) -> (i, Alveare_frontend.Parser.parse p)) rules
  in
  let slices =
    Array.init n_slices (fun _ ->
        (Gen.request rng ~size:slice_bytes
           ~background:Alveare_workloads.Streams.network ~every:2048 asts)
          .Gen.data)
  in
  let served = List.map snd rules in
  let fresh =
    Alveare_workloads.Snort.patterns rng 600
    |> List.sort_uniq compare
    |> List.filter (fun p ->
        (not (List.mem p served))
        && match Service.handle svc (P.Compile { id = 0; pattern = p; allow_risky = false }) with
           | P.Compiled _ -> true
           | _ -> false)
    |> Rng.shuffle rng |> Array.of_list
  in
  { rules; slices; fresh }

(* Request [i] of the run, a pure function of the seed and [i]. The mix
   is fixed per position (every fourth a ruleset scan, every fiftieth a
   compile) so that every seed offers the same load; the seed picks the
   slices, rules and patterns. *)
let describe inputs seed i =
  let rng = Rng.create ((seed * 7_919) + (i * 104_729) + 3) in
  let slice = Rng.int rng n_slices in
  let kind =
    if i mod 4 = 0 then Rules
    else if i mod 50 = 1 then Compile_new inputs.fresh.(i / 50 mod Array.length inputs.fresh)
    else Single (Rng.int rng (List.length inputs.rules))
  in
  { kind; slice }

let request inputs ~id d =
  let input = inputs.slices.(d.slice) in
  match d.kind with
  | Rules ->
    P.Ruleset_scan { id; rules = inputs.rules; input; deadline_ms; allow_risky = false }
  | Single k ->
    P.Scan
      { id; pattern = snd (List.nth inputs.rules k); input; deadline_ms;
        allow_risky = false }
  | Compile_new pattern -> P.Compile { id; pattern; allow_risky = false }

let with_id id = function
  | P.Health_ok r -> P.Health_ok { r with id }
  | P.Compiled r -> P.Compiled { r with id }
  | P.Matches r -> P.Matches { r with id }
  | P.Ruleset_matches r -> P.Ruleset_matches { r with id }
  | P.Stats_reply r -> P.Stats_reply { r with id }
  | P.Error r -> P.Error { r with id }

(* --- Daemon process ----------------------------------------------------- *)

type daemon = {
  pid : int;
  sock : string;
}

let spawn ~work_dir =
  let sock = Filename.concat work_dir (Printf.sprintf "alveared-%d.sock" (Unix.getpid ())) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process daemon_exe
      [| daemon_exe; "--socket"; sock; "--quiet" |]
      Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;
  { pid; sock }

let connect d =
  let deadline = now () +. 20.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

(* SIGTERM drains in-flight requests before the daemon exits. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  (try Sys.remove d.sock with Sys_error _ -> ())

let rec write_all fd s off len =
  if len > 0 then begin
    let k = Unix.write_substring fd s off len in
    write_all fd s (off + k) (len - k)
  end

(* --- Open-loop connection ---------------------------------------------- *)

(* A sender thread writes each request when it is due; a receiver
   thread reads the replies as they come. *)
type conn = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  replies : (int, float * P.response) Hashtbl.t;  (** id -> arrival, reply *)
  mutable closed : bool;
}

let receiver c =
  let dec = P.decoder () in
  let buf = Bytes.create 65536 in
  let rec drain t =
    match P.next_response dec with
    | P.Frame r ->
      Mutex.lock c.lock;
      Hashtbl.replace c.replies (P.response_id r) (t, r);
      Mutex.unlock c.lock;
      drain t
    | P.Await -> true
    | P.Corrupt _ -> false
  in
  let rec loop () =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
      (* a reply arrives when its bytes do, not when it is decoded *)
      let t = now () in
      P.feed dec (Bytes.sub_string buf 0 k);
      if drain t then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  Mutex.lock c.lock;
  c.closed <- true;
  Mutex.unlock c.lock

let open_conn fd =
  let c = { fd; lock = Mutex.create (); replies = Hashtbl.create 4096; closed = false } in
  (c, Thread.create receiver c)

(* Wait until [until ()] holds (checked with the lock held), the
   connection closes, or [deadline] passes. Returns with the lock held. *)
let wait_locked c ~deadline until =
  Mutex.lock c.lock;
  while (not (until ())) && (not c.closed) && now () < deadline do
    Mutex.unlock c.lock;
    Thread.delay 0.001;
    Mutex.lock c.lock
  done

type sent = {
  sid : int;
  sdesc : desc;
  due : float;
  mutable sent_at : float;
}

(* Send [n] requests at [rate] per second starting now, then wait for
   every reply (or [drain_s] after the last was due). Returns each
   request with its reply, if any. *)
let phase c inputs seed ~first ~n ~drain_s =
  let descs = Array.init n (fun k -> describe inputs seed (first + k)) in
  let frames =
    Array.mapi (fun k d -> P.encode_request (request inputs ~id:(first + k + 1) d)) descs
  in
  (* the schedule starts only once every frame is encoded *)
  let t0 = now () +. 0.002 in
  let reqs =
    Array.mapi
      (fun k d ->
         { sid = first + k + 1; sdesc = d; due = t0 +. (float_of_int k /. rate);
           sent_at = 0.0 })
      descs
  in
  let sender () =
    Array.iteri
      (fun k s ->
         let wait = s.due -. now () in
         if wait > 0.0 then Unix.sleepf wait;
         s.sent_at <- now ();
         write_all c.fd frames.(k) 0 (String.length frames.(k)))
      reqs
  in
  Thread.join (Thread.create sender ());
  wait_locked c ~deadline:(reqs.(n - 1).due +. drain_s) (fun () ->
      Array.for_all (fun s -> Hashtbl.mem c.replies s.sid) reqs);
  let out = Array.map (fun s -> (s, Hashtbl.find_opt c.replies s.sid)) reqs in
  Array.iter (fun s -> Hashtbl.remove c.replies s.sid) reqs;
  Mutex.unlock c.lock;
  out

(* --- Checks ------------------------------------------------------------- *)

type reference = {
  svc : Service.t;
  memo : (string, P.response) Hashtbl.t;
}

let key d = match d.kind with
  | Rules -> Printf.sprintf "r%d" d.slice
  | Single k -> Printf.sprintf "s%d/%d" k d.slice
  | Compile_new p -> "c" ^ p

(* The in-process reply (id 0). *)
let expected refs inputs d =
  let k = key d in
  match Hashtbl.find_opt refs.memo k with
  | Some r -> r
  | None ->
    let r = Service.handle refs.svc (request inputs ~id:0 d) in
    Hashtbl.replace refs.memo k r;
    r

(* A reply is correct when it equals the in-process one and is not a
   refusal (shed, deadline, lint gate). *)
let correct refs inputs d reply =
  match reply with
  | Some (_, P.Error _) | None -> false
  | Some (_, r) -> with_id 0 r = expected refs inputs d

(* Replies equal to the in-process reference. *)
let served refs inputs results =
  Array.fold_left
    (fun acc (s, reply) -> if correct refs inputs s.sdesc reply then acc + 1 else acc)
    0 results

(* The daemon's own counters, asked over the open-loop connection. *)
let stats_of c =
  let id = max_int land 0x3fff_ffff in
  let frame = P.encode_request (P.Stats { id }) in
  write_all c.fd frame 0 (String.length frame);
  wait_locked c ~deadline:(now () +. 5.0) (fun () -> Hashtbl.mem c.replies id);
  let reply = Hashtbl.find_opt c.replies id in
  Mutex.unlock c.lock;
  match reply with
  | Some (_, P.Stats_reply { entries; _ }) -> entries
  | _ -> []

(* --- Run ---------------------------------------------------------------- *)

(* One daemon, checked on its first ruleset-scan reply, then the warm-up
   and the measured phase at [rate]; then the in-process protocol and
   service costs of the measured requests. *)
let run_traced ~work_dir ~spans_path ~seed =
  (* this process is only the load generator: a large minor heap and a
     lazy major GC keep its own collections out of the timings *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 lsl 20; space_overhead = 400 };
  let refs = { svc = service (); memo = Hashtbl.create 1024 } in
  let inputs = make_inputs refs.svc seed in
  let d = spawn ~work_dir in
  let fd =
    try connect d with e -> stop d; raise e
  in
  let c, receiver = open_conn fd in
  Fun.protect
    ~finally:(fun () ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        Thread.join receiver;
        Unix.close fd;
        stop d)
  @@ fun () ->
  let n_warm = int_of_float (rate *. warmup_s) in
  let warm = phase c inputs seed ~first:0 ~n:n_warm ~drain_s:5.0 in
  let n = int_of_float (rate *. measured_s) in
  let res = phase c inputs seed ~first:n_warm ~n ~drain_s:5.0 in
  let ok = served refs inputs warm + served refs inputs res in
  let stats = stats_of c in
  let stat k = Option.value ~default:0.0 (List.assoc_opt k stats) in
  let frames = Array.map (fun (s, _) -> request inputs ~id:s.sid s.sdesc) res in
  let encoded = Array.map P.encode_request frames in
  let per_frame f xs =
    let t0 = now () in
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    (now () -. t0) *. 1e6 /. float_of_int (Array.length xs)
  in
  let encode_us = per_frame P.encode_request frames in
  let decode_us =
    per_frame
      (fun f ->
         let dec = P.decoder () in
         P.feed dec f;
         P.next_request dec)
      encoded
  in
  (* the same requests through an in-process Service whose caches are
     as warm as the daemon's, one span each *)
  Spans.reset ();
  Spans.enabled := true;
  let service =
    Array.map
      (fun (s, _) ->
         Spans.start_request s.sid;
         let req = request inputs ~id:0 s.sdesc in
         Spans.with_span "server" "service" (fun () ->
             let t0 = now () in
             ignore (Sys.opaque_identity (Service.handle refs.svc req));
             now () -. t0))
      res
  in
  Spans.enabled := false;
  Spans.write spans_path;
  let svc_ms kind_ok =
    List.filteri (fun i _ -> kind_ok (fst res.(i)).sdesc.kind) (Array.to_list service)
    |> List.map (fun t -> t *. 1e3)
  in
  let transport =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i (s, reply) ->
               match reply with
               | Some (t, _) -> [ ((t -. s.due) -. service.(i)) *. 1e3 ]
               | None -> [])
            res))
  in
  let late = Array.to_list (Array.map (fun (s, _) -> (s.sent_at -. s.due) *. 1e3) res) in
  let hits = stat "cache/hits" and misses = stat "cache/misses" in
  Printf.printf "server layers: %d requests at %.0f req/s, %d correct\n%!" (n_warm + n) rate ok;
  ( [ ("server.protocol_decode_us", decode_us);
      ("server.protocol_encode_us", encode_us);
      ("server.service_scan_ms", median (svc_ms (function Single _ -> true | _ -> false)));
      ("server.service_ruleset_ms", median (svc_ms (function Rules -> true | _ -> false)));
      ("server.transport_queue_ms_p50", median transport);
      ("exec.cache_hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
      ("server.shed", stat "admission/shed");
      ("server.deadline_missed", stat "errors/deadline-exceeded");
      ("gen.late_ms_p99", percentile 0.99 late) ],
    n_warm + n,
    n_warm + n - ok )
