"""Long-lived warm-worker detection service (`kivati serve`).

The fleet plane (:mod:`repro.fleet`) executes *batches*: a pool is
started, jobs run, the pool stops with the call. This package is the
*serving* story on the same pool (:class:`repro.fleet.pool.WarmPool`):
a daemon that keeps it warm across requests (pre-imported interpreter,
pre-compiled programs), speaks a JSON-framed protocol over a
Unix-domain socket, and is engineered to survive crashes, overload,
hostile input, and operator signals — see :mod:`repro.service.daemon`
for the robustness inventory and DESIGN.md §12 for the architecture.

Layers: protocol (framing) < pool (warm process lifecycle, in
:mod:`repro.fleet.pool`) < daemon (deadlines, retries, quarantine,
admission, drain) < client.
"""

from repro.service.client import (ServiceClient, ServiceUnavailable,
                                  wait_for_socket)
from repro.service.daemon import (KivatiDaemon, SERVICE_JOB_KINDS,
                                  ServicePolicy, ServiceStats)
from repro.service.protocol import (ERROR_KINDS, MAX_FRAME_BYTES,
                                    recv_frame, send_frame)

__all__ = ["ERROR_KINDS", "KivatiDaemon", "MAX_FRAME_BYTES",
           "SERVICE_JOB_KINDS", "ServiceClient", "ServicePolicy",
           "ServiceStats", "ServiceUnavailable", "recv_frame", "send_frame",
           "wait_for_socket"]
