(* Outcomes of the city scenario recorded at the seed commit, one per
   scenario seed; regenerate with [peacebench --record-city N]. *)

type outcome = {
  attempts : int;
  successes : int;
  bytes_on_air : int;
  handshake_mean_ms : float;
}

let to_string o =
  Printf.sprintf "%d/%d ok, %d bytes, handshake mean %h ms" o.successes o.attempts
    o.bytes_on_air o.handshake_mean_ms

let table : (int * outcome) list =
  [
    (1, { attempts = 131; successes = 129; bytes_on_air = 1196616; handshake_mean_ms = 0x1.46b29aca6b29bp+6 });
    (2, { attempts = 120; successes = 120; bytes_on_air = 1235760; handshake_mean_ms = 0x1.4f9999999999ap+6 });
    (3, { attempts = 121; successes = 121; bytes_on_air = 1360584; handshake_mean_ms = 0x1.3b0a941963702p+6 });
    (4, { attempts = 103; successes = 102; bytes_on_air = 1189488; handshake_mean_ms = 0x1.32aaaaaaaaaabp+6 });
    (5, { attempts = 132; successes = 131; bytes_on_air = 1280184; handshake_mean_ms = 0x1.43b9a61b5bd8fp+6 });
    (6, { attempts = 105; successes = 105; bytes_on_air = 1231800; handshake_mean_ms = 0x1.41fb1fb1fb1fbp+6 });
    (7, { attempts = 117; successes = 116; bytes_on_air = 1151664; handshake_mean_ms = 0x1.3772c234f72c2p+6 });
    (8, { attempts = 108; successes = 106; bytes_on_air = 1232064; handshake_mean_ms = 0x1.30609a90e7d96p+6 });
    (9, { attempts = 119; successes = 118; bytes_on_air = 1359792; handshake_mean_ms = 0x1.3e1a08ad8f2fcp+6 });
    (10, { attempts = 126; successes = 126; bytes_on_air = 1320384; handshake_mean_ms = 0x1.4249249249249p+6 });
    (11, { attempts = 115; successes = 114; bytes_on_air = 1275696; handshake_mean_ms = 0x1.2ae08fb823ee1p+6 });
    (12, { attempts = 125; successes = 125; bytes_on_air = 1278600; handshake_mean_ms = 0x1.38p+6 });
    (13, { attempts = 130; successes = 130; bytes_on_air = 1362960; handshake_mean_ms = 0x1.349d89d89d89ep+6 });
    (14, { attempts = 117; successes = 117; bytes_on_air = 1276488; handshake_mean_ms = 0x1.2834834834835p+6 });
    (15, { attempts = 127; successes = 126; bytes_on_air = 1361904; handshake_mean_ms = 0x1.35a69a69a69a7p+6 });
    (16, { attempts = 123; successes = 122; bytes_on_air = 1194768; handshake_mean_ms = 0x1.2e8eb04325c54p+6 });
    (17, { attempts = 107; successes = 107; bytes_on_air = 1273848; handshake_mean_ms = 0x1.372d753bd0264p+6 });
    (18, { attempts = 122; successes = 122; bytes_on_air = 1319328; handshake_mean_ms = 0x1.410c9714fbcdap+6 });
    (19, { attempts = 115; successes = 115; bytes_on_air = 1068360; handshake_mean_ms = 0x1.28p+6 });
    (20, { attempts = 118; successes = 118; bytes_on_air = 1193712; handshake_mean_ms = 0x1.2f0d0456c797ep+6 });
    (21, { attempts = 104; successes = 102; bytes_on_air = 1106448; handshake_mean_ms = 0x1.3050505050505p+6 });
    (22, { attempts = 115; successes = 115; bytes_on_air = 1442040; handshake_mean_ms = 0x1.3c61f2a4bafdcp+6 });
    (23, { attempts = 105; successes = 104; bytes_on_air = 1190016; handshake_mean_ms = 0x1.329d89d89d89ep+6 });
    (24, { attempts = 99; successes = 98; bytes_on_air = 1229952; handshake_mean_ms = 0x1.3343eb1a1f58dp+6 });
  ]
