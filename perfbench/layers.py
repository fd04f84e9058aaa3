"""Per-layer tracing for the benchmark, done entirely from outside the package.

The package binds names with ``from .crypto import ...``, so a function has
one binding per importing module. ``Tracer.install`` replaces every binding of
each traced function, in every rsa_cegd module, with one shared wrapper, and
``Tracer.uninstall`` puts the originals back. Each call therefore passes
through exactly one wrapper. A wrapper whose span name equals the innermost
open span's name calls straight through: that is how ``sym_decrypt`` ->
``sym_encrypt`` and ``verify_goods_cert`` -> ``check_goods_cert`` count once.

Every span adds to its name's call count, inclusive time and self time
(inclusive minus the time of its child spans) as it closes. The spans of the
first ``SPAN_OPS`` operations are also kept in memory as ``(name, start, end,
parent, op)`` tuples (times from ``time.perf_counter``, parent an index into
the list or -1) and written out as JSON lines by ``write_spans`` after the
measurement ends; all of them would be ~100 MB of JSON per toy-sweep run.
"""

import json
import time
from functools import wraps

MIB = 1 << 20
SPAN_OPS = 30

# Span name -> (module, attribute) bindings that implement it. Every other
# module that imported the same function object is found and patched too.
FUNCTIONS = {
    "crypto.keygen": [("crypto", "rsa_keygen_with_exponent")],
    "crypto.prime_sample": [("crypto", "random_prime_below")],
    "crypto.primality": [("crypto", "is_probable_prime")],
    "crypto.sym": [("crypto", "sym_encrypt"), ("crypto", "sym_decrypt")],
    "crypto.hash": [("crypto", "hash_int")],
    "crypto.modpow": [("crypto", "mod_pow")],
    "credentials.goods_cert_issue": [("credentials", "issue_goods_cert")],
    "credentials.goods_cert_check": [("credentials", "check_goods_cert"),
                                     ("credentials", "verify_goods_cert")],
    "credentials.recovery_cert_issue": [("credentials", "issue_recoverable_cert")],
    "credentials.recovery_cert_verify": [("credentials", "verify_recoverable_cert")],
    "vres.wrap_key": [("vres", "wrap_key")],
    "vres.generate": [("vres", "generate_vres")],
    "vres.check": [("vres", "check_vres"), ("vres", "verify_vres")],
    "vres.auth_token": [("vres", "make_auth_token"), ("vres", "verify_auth_token")],
    "vres.recover": [("vres", "recover_receipt"), ("vres", "recover_randomizer")],
    "harness.build_world": [("harness", "build_world")],
    "harness.run": [("harness", "run_mode")],
    "harness.evaluate_fairness": [("harness", "evaluate_fairness")],
    "harness.verify_report": [("harness", "verify_report")],
    "transcript.message_record": [("transcript", "message_record")],
    "transcript.encode": [("transcript", "report_lines")],
    "transcript.write": [("transcript", "write_report_lines")],
    "transcript.load": [("transcript", "load_report")],
}

# Protocol handlers, named by the step they send or receive.
HANDLERS = {
    "protocol.E1_send": ("SenderSession", "start"),
    "protocol.E1_recv": ("ReceiverSession", "on_goods_offer"),
    "protocol.E2_recv": ("SenderSession", "on_encrypted_receipt"),
    "protocol.E3_recv": ("ReceiverSession", "on_key_release"),
    "protocol.E4_recv": ("SenderSession", "on_receipt_release"),
    "protocol.R1_recv": ("ArbiterService", "on_recovery_request"),
    "protocol.R2_recv": ("SenderSession", "on_recovered_randomizer"),
    "protocol.R3_recv": ("ReceiverSession", "on_recovered_randomizer"),
}

MODULES = ("crypto", "credentials", "vres", "protocol", "harness", "transcript", "cli")


def _sym_bytes(args, result):
    return len(args[1])


def _prime_true(args, result):
    return 1 if result else 0


def _encoded_bytes(args, result):
    return sum(len(line) + 1 for line in result)


# Span name -> amount each call adds to that name's total in Tracer.amounts.
AMOUNTS = {
    "crypto.sym": _sym_bytes,
    "crypto.primality": _prime_true,
    "transcript.encode": _encoded_bytes,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.op = -1
        self.spans = []
        self.stack = []  # open spans: [name, child seconds, index in spans or -1]
        self.totals = {}  # name -> [calls, seconds, self seconds]
        self.amounts = {}
        self.rejects = 0
        self._patched = []

    def wrap(self, name, fn, counts_rejects=False):
        """`fn` recording one span named `name` per call."""
        spans, stack, amounts = self.spans, self.stack, self.amounts
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        amount = AMOUNTS.get(name)
        # Only handlers count rejects, so a Reject that propagates through
        # several wrappers is counted once.
        reject = self.package.protocol.Reject if counts_rejects else ()
        tracer = self
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0, -1]
            if tracer.op < SPAN_OPS:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except reject:
                tracer.rejects += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if frame[2] >= 0:
                    spans[frame[2]] = (name, start, end, stack[-1][2] if stack else -1,
                                       tracer.op)
            if amount is not None:
                amounts[name] = amounts.get(name, 0) + amount(args, result)
            return result

        return traced

    def install(self):
        pkg = self.package
        wrappers = {}  # by id: module namespaces also hold unhashable values
        for name, sites in FUNCTIONS.items():
            for module, attr in sites:
                fn = getattr(getattr(pkg, module), attr)
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for owner in [pkg] + [getattr(pkg, m) for m in MODULES]:
            for attr, value in list(vars(owner).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, entry[1])
        for name, (cls_name, attr) in HANDLERS.items():
            cls = getattr(pkg.protocol, cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, counts_rejects=True))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self, ops):
        """Per-operation calls, inclusive ms and self ms for every span name,
        plus the recorded amounts; ``ops`` is the number of traced operations."""
        per_op = {}
        for name, (calls, seconds, own) in self.totals.items():
            per_op[f"{name}.calls"] = calls / ops
            per_op[f"{name}.ms"] = seconds * 1000.0 / ops
            per_op[f"{name}.self_ms"] = own * 1000.0 / ops
        per_op["crypto.sym.mib"] = self.amounts.get("crypto.sym", 0) / MIB / ops
        per_op["transcript.encode.mib"] = \
            self.amounts.get("transcript.encode", 0) / MIB / ops
        primality = self.totals.get("crypto.primality", [0])[0]
        per_op["crypto.primality.true_ratio"] = \
            self.amounts.get("crypto.primality", 0) / primality if primality else 0.0
        per_op["protocol.reject.count"] = self.rejects / ops
        return per_op

    def write_spans(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "op": op, "name": name, "parent": parent,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                }, separators=(",", ":")) + "\n")
