(* Single-path lint: every transaction's bookkeeping and every observation
   of a protocol move goes through [Lsr_core.Replica_set]. Fails when any
   other library module records into the history, drives watchdog tokens,
   or notes commits, reads, crashes or recoveries in the flight recorder;
   when any module but [Replica_set] and [Channel] (whose injected faults
   are no move of their own) notes a pipeline stage; when any module but
   [Replica_set], [Metrics] (the clients' counters) and [Lag_report] (which
   looks gauges up by name) interns a counter or a gauge, so Secondary and
   Propagation stay pure protocol; and when any
   module but [Replica_set] runs the end-of-run verdict's checks, builds
   a fault channel, which the replica set owns per secondary, or reads
   freshness or lag off the commit clock, which it measures once per read
   and per refresh commit and hands to the driver's hooks; and when any
   module but [Replica_set] resolves a read's threshold or moves a
   session's seq(c), read floor or the commit clock, so a driver asks the
   core for a threshold and each transaction's session bookkeeping happens
   once, in its begin and finish hooks. The protocol's
   moves change replication state in one place, [Replica_set.fire]: no
   other module polls the log, drives a link, builds a replica,
   enqueues a record, steps a refresher or commits a pending queue's head,
   so System and Sim_system fire the same transition relation. And one
   module decides when those moves fire: no library module but
   [Replica_set] and [Scheduler] names the [Poll], [Deliver], [Refresh] or
   [Commit] move, so both drivers run the one propagator, refresher and
   applicators, and a driver fires only [Crash] and [Recover] itself. A client
   transaction has one path too: only [Replica_set] (the primary's and
   the replicas' client transactions) and [Secondary] (its refresh
   transactions) open, commit or abort an MVCC transaction or end a read,
   and only [Handle] and [Table] read or write through one (by name or,
   [Mvcc.read_number], by number), so neither
   driver opens, serves, commits or ends a transaction itself, although
   [Handle.txn] hands it the MVCC transaction. Every log record has a
   reader: only [Replica_set] creates a log, the primary's. Retirement has one
   owner: only [Replica_set], which knows the propagation cursor and every
   open transaction, truncates the log or vacuums a store. The log has one writer and one reader: only
   [Mvcc] appends to it, and squashes a writeset, once per commit, into
   the commit record that is shipped as it is; only [Propagation] reads
   it. No simulated process is a fiber: every wait passes a continuation
   to [Resource.use] or a timer, or an action to a [Seqcond] threshold
   queue, so no library module but [Process] itself names [Process] or
   [Effect]. A postmortem capture has three triggers: the watchdog's first
   alert, the first refresh commit whose digest differs from its record's
   ([Replica_set.fire]) and the simulator's failed checker battery.
   Completeness has one judge: only [Secondary], at each refresh commit,
   compares a store's digest with a commit record's. The timestamp
   criteria have one judge too: only [Watchdog] maps a guarantee to the
   inversion level it forbids, and only [Replica_set]'s end-of-run verdict
   replays a recorded history into it or compares a recovered copy's
   state; everyone else reads its verdicts. A sample reaches
   a registry histogram from one place: the clients' samples from
   [Metrics], freshness and lag from [Replica_set], so no third module
   records the same sample again. No library module builds the
   history's records ([History.transactions]): the replay reads its
   columns in place, and only tests and tools read records. Only
   [Txn_gen] skips a random stream ([Rng.skip]): a skip is exact only
   where the number of draws per value is known, and [Txn_gen] states it
   for its keys. Only [Sim_system] banks a stream ([Rng.save],
   [Rng.load]): a banked stream is one closed-loop client's, saved at the
   end of its turn and loaded at the start of the next, so no second
   holder can draw from a slot in between. Only [Replica_set] makes a key
   dictionary ([Mvcc.keys]): one per replica set, handed to its primary,
   its secondaries and every recovered copy, so the copies of one database
   share one and no two replica sets do. The judge trusts no store: [Watchdog]
   names no [Mvcc] value, so its key numbers come from its own table, never
   from the dictionary whose stores it audits. A key's name and its
   number map to each other in one place: no library module outside
   [lib/storage] holds a string literal that starts with [item:], so the
   generator cannot name a key the dictionary does not number. The
   simulator has one way to arm a timer: no library module calls
   [Engine.schedule], which is [Engine.after] under its old name, kept
   only for the benchmark's two timers in bench/suite.

   Usage: single_path.exe FILE.ml... (the library sources). Comments are
   skipped, and so are string literals except by that last rule. Exits 1
   listing each offending call. *)

(* (modules allowed to make the calls, how to name them, the calls) *)
let rules =
  [
    ( [ "replica_set.ml" ],
      "Replica_set",
      [ "History.add"; "Watchdog.begin_"; "Watchdog.end_";
        "Watchdog.release"; "Flight.note_commit"; "Flight.note_read";
        "Flight.note_crash"; "Flight.note_recovery" ] );
    ( [ "replica_set.ml"; "channel.ml" ],
      "Replica_set / Channel",
      [ "Flight.note_stage" ] );
    ( [ "replica_set.ml"; "metrics.ml"; "lag_report.ml" ],
      "Replica_set / Metrics / Lag_report",
      [ "Obs.counter"; "Obs.gauge" ] );
    ( [ "replica_set.ml" ],
      "Replica_set",
      [ "Watchdog.replay"; "Mvcc.same_state"; "Channel.create";
        "Session.clock_freshness"; "Session.clock_time_of" ] );
    ( [ "replica_set.ml" ],
      "Replica_set",
      [ "Session.fence_floor"; "Session.read_threshold"; "Session.note_read";
        "Session.note_update_commit"; "Session.clock_note" ] );
    ( [ "replica_set.ml" ],
      "Replica_set.fire",
      [ "Propagation.create"; "Propagation.poll"; "Channel.send";
        "Channel.tick"; "Channel.reset"; "Secondary.create";
        "Secondary.enqueue"; "Secondary.refresher_step";
        "Secondary.commit_head" ] );
    ( [ "replica_set.ml"; "scheduler.ml" ],
      "Replica_set / Scheduler",
      [ "Replica_set.Poll"; "Replica_set.Deliver"; "Replica_set.Refresh";
        "Replica_set.Commit" ] );
    ( [ "replica_set.ml"; "secondary.ml" ],
      "Replica_set / Secondary",
      [ "Mvcc.begin_txn"; "Mvcc.commit"; "Mvcc.abort"; "Mvcc.end_read" ] );
    ( [ "handle.ml"; "table.ml" ],
      "Handle / Table",
      [ "Mvcc.read"; "Mvcc.read_number"; "Mvcc.write" ] );
    ([ "replica_set.ml" ], "Replica_set", [ "Wal.create" ]);
    ([ "mvcc.ml" ], "Mvcc", [ "Wal.append"; "Wal.squash" ]);
    ([ "propagation.ml" ], "Propagation", [ "Wal.read_from" ]);
    ([ "replica_set.ml" ], "Replica_set", [ "Wal.truncate_before"; "Mvcc.vacuum" ]);
    ([ "process.ml" ], "Process", [ "Process"; "Effect" ]);
    ( [ "watchdog.ml"; "replica_set.ml"; "sim_system.ml" ],
      "Watchdog / Replica_set / Sim_system",
      [ "Flight.trigger" ] );
    ([ "mvcc.ml"; "secondary.ml" ], "Mvcc / Secondary", [ "Mvcc.digest" ]);
    ([ "watchdog.ml" ], "Watchdog", [ "Session.forbidden_level" ]);
    ( [ "metrics.ml"; "replica_set.ml" ],
      "Metrics / Replica_set",
      [ "Obs.observe" ] );
    ([], "tests and tools", [ "History.transactions" ]);
    ([ "txn_gen.ml" ], "Txn_gen", [ "Rng.skip" ]);
    ([ "sim_system.ml" ], "Sim_system", [ "Rng.save"; "Rng.load" ]);
    ([ "replica_set.ml" ], "Replica_set", [ "Mvcc.keys" ]);
    ([], "bench/suite", [ "Engine.schedule" ]);
  ]

(* (modules that may not name them, which module that is, the names) *)
let bans = [ ([ "watchdog.ml" ], "Watchdog", [ "Mvcc" ]) ]

(* (the directory whose modules may hold it, which modules those are, the
   text a string literal may not start with elsewhere) *)
let literals = [ ("lib/storage/", "Lsr_storage", "\"item:") ]

(* [src] with comments (nested) and, unless [strings], string literals
   blanked out, newlines kept so line numbers survive. *)
let code_only ?(strings = false) src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if src.[i] <> '\n' then Bytes.set out i ' ' in
  let rec code i =
    if i < n then
      if src.[i] = '"' then string (i + 1)
      else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        blank i;
        blank (i + 1);
        comment 1 (i + 2)
      end
      else if i + 2 < n && src.[i] = '\'' && src.[i + 2] = '\'' then code (i + 3)
      else if i + 3 < n && src.[i] = '\'' && src.[i + 1] = '\\' then
        (* An escaped character literal: resume after its closing quote. *)
        match String.index_from_opt src (i + 3) '\'' with
        | Some j -> code (j + 1)
        | None -> ()
      else code (i + 1)
  and string i =
    if i < n then
      if src.[i] = '\\' && i + 1 < n then begin
        if not strings then begin
          blank i;
          blank (i + 1)
        end;
        string (i + 2)
      end
      else if src.[i] = '"' then code (i + 1)
      else begin
        if not strings then blank i;
        string (i + 1)
      end
  and comment depth i =
    if i < n then
      if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
        blank i;
        blank (i + 1);
        if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
      end
      else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        blank i;
        blank (i + 1);
        comment (depth + 1) (i + 2)
      end
      else begin
        blank i;
        comment depth (i + 1)
      end
  in
  code 0;
  Bytes.to_string out

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Occurrences of [pat] in [line] as a qualified name: not preceded by an
   identifier character (so [Lsr_obs.Flight.note_read] matches, [MyHistory.add]
   does not), and, unless [pat] ends in [_], not followed by one. *)
let mentions line pat =
  let n = String.length line and m = String.length pat in
  let prefix = pat.[m - 1] = '_' in
  let rec at i =
    i + m <= n
    && ((String.sub line i m = pat
        && (i = 0 || not (is_ident_char line.[i - 1]))
        && (prefix || i + m = n || not (is_ident_char line.[i + m])))
       || at (i + 1))
  in
  at 0

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let offences = ref 0 in
  List.iter
    (fun file ->
      let src = read_file file in
      List.iter
        (fun (dir, owner, text) ->
          if not (contains file dir) then
            List.iteri
              (fun i line ->
                if contains line text then begin
                  incr offences;
                  Printf.printf "%s:%d: a string literal %s... outside %s\n" file (i + 1)
                    text owner
                end)
              (String.split_on_char '\n' (code_only ~strings:true src)))
        literals;
      let lines = String.split_on_char '\n' (code_only src) in
      List.iter
        (fun (banned, owner, names) ->
          if List.mem (Filename.basename file) banned then
            List.iteri
              (fun i line ->
                List.iter
                  (fun pat ->
                    if mentions line pat then begin
                      incr offences;
                      Printf.printf "%s:%d: %s named inside %s\n" file (i + 1) pat owner
                    end)
                  names)
              lines)
        bans;
      List.iter
        (fun (allowed, owner, forbidden) ->
          if not (List.mem (Filename.basename file) allowed) then
            List.iteri
              (fun i line ->
                List.iter
                  (fun pat ->
                    if mentions line pat then begin
                      incr offences;
                      Printf.printf "%s:%d: %s outside %s\n" file (i + 1) pat
                        owner
                    end)
                  forbidden)
              lines)
        rules)
    files;
  if !offences > 0 then exit 1
