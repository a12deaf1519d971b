"""Open-loop load generator for `obscorr serve` that cannot hang.

One process drives at most four Unix-socket connections from a fixed
schedule: each request is written on its connection when it is due,
whether or not earlier replies have arrived (open loop; the daemon
answers in order per connection). Latency runs from
the scheduled send, so a stall also charges the requests queued behind it.
Every request carries a deadline. When the schedule is done the generator
waits for replies only until the last deadline, and a request without a
reply by its own deadline counts as failed. Stopping the daemon is the
caller's job (see `procs.stop`): SIGTERM, a bounded drain, then SIGKILL.
"""

import json
import selectors
import socket
import time


class Request:
    __slots__ = ("conn", "line", "due", "done", "ok", "reply", "check")

    def __init__(self, conn, line, due, check=None):
        self.conn = conn
        self.line = line        # the request line, sent when it is due
        self.due = due          # seconds after t0
        self.done = None        # seconds after t0, when the reply line arrived
        self.ok = False         # the reply parsed and said "ok": true
        self.reply = None       # reply bytes, kept for checked and failed requests
        self.check = check      # label of the batch output this reply must match


def connect(path, deadline_s):
    """Connect to the daemon's socket, retrying until it listens."""
    end = time.monotonic() + deadline_s
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            s.setblocking(False)
            return s
        except OSError:
            s.close()
            if time.monotonic() > end:
                raise
            time.sleep(0.01)


def run_schedule(path, requests, conns, deadline_s):
    """Send `requests` (sorted by due time) and collect replies.

    Returns how late the generator sent its most-delayed request, in
    seconds. Requests without a reply keep `done = None`; replies later
    than their deadline keep their time and are judged by the caller.
    """
    try:
        socks = [connect(path, 10.0) for _ in range(conns)]
    except OSError:
        return 0.0  # the daemon never listened: every request stays unanswered
    sel = selectors.DefaultSelector()
    pending = [[] for _ in range(conns)]   # FIFO of requests awaiting a reply
    inbuf = [b"" for _ in range(conns)]
    outbuf = [b"" for _ in range(conns)]
    closed = set()                         # connections the daemon closed
    for i, s in enumerate(socks):
        sel.register(s, selectors.EVENT_READ, i)
    t0 = time.monotonic()
    nxt = 0
    max_lag = 0.0
    last_deadline = (requests[-1].due if requests else 0.0) + deadline_s
    outstanding = 0
    try:
        while True:
            now = time.monotonic() - t0
            while nxt < len(requests) and requests[nxt].due <= now:
                r = requests[nxt]
                max_lag = max(max_lag, now - r.due)
                outbuf[r.conn] += r.line
                pending[r.conn].append(r)
                outstanding += 1
                nxt += 1
            for i, s in enumerate(socks):
                if i in closed:
                    continue
                if outbuf[i]:
                    try:
                        n = s.send(outbuf[i])
                        outbuf[i] = outbuf[i][n:]
                    except (BlockingIOError, InterruptedError):
                        pass
                    except OSError:
                        outbuf[i] = b""
                mode = selectors.EVENT_READ | (selectors.EVENT_WRITE if outbuf[i] else 0)
                sel.modify(s, mode, i)
            if nxt == len(requests) and outstanding == 0:
                break
            if now > last_deadline:
                break
            wait = last_deadline - now
            if nxt < len(requests):
                wait = min(wait, requests[nxt].due - now)
            for key, events in sel.select(timeout=max(0.0, min(wait, 0.05))):
                i = key.data
                if not events & selectors.EVENT_READ:
                    continue
                try:
                    chunk = key.fileobj.recv(1 << 20)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    # Requests still pending here never get a reply.
                    sel.unregister(key.fileobj)
                    closed.add(i)
                    continue
                inbuf[i] += chunk
                while b"\n" in inbuf[i] and pending[i]:
                    line, inbuf[i] = inbuf[i].split(b"\n", 1)
                    r = pending[i].pop(0)
                    r.done = time.monotonic() - t0
                    r.ok = reply_ok(line)
                    if r.check is not None or not r.ok:
                        r.reply = line
                    outstanding -= 1
    finally:
        for i, s in enumerate(socks):
            if i not in closed:
                sel.unregister(s)
            s.close()
    return max_lag


def reply_ok(line):
    try:
        doc = json.loads(line)
    except (ValueError, TypeError):
        return False
    return doc.get("ok") is True


def reply_text(line):
    return json.loads(line)["result"]["text"]
