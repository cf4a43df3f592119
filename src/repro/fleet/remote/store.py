"""The artifact-store protocol: content-addressed get/put over HTTP.

Server (``repro fleet store``) -- a :class:`ResultCache` behind five
endpoints, mapped from the SecureModelHub ``Artifacts``/``Health`` pair:

    ==============================  =============================================
    ``GET  /health``                liveness: ``{"status": "ok", "objects": N}``
    ``GET  /stats``                 the backing cache's ``describe()`` dict
    ``HEAD /artifacts/<digest>``    existence probe (200 / 404)
    ``GET  /artifacts/<digest>``    artifact bytes + ``X-Repro-SHA256`` header
    ``PUT  /artifacts/<digest>``    atomic store; checksum verified before rename
    ``POST /quarantine/<digest>``   evict a corrupt object (kept for forensics)
    ==============================  =============================================

Client (:class:`HTTPStore`) -- the :class:`ArtifactStore` protocol over
those endpoints, so ``FleetScheduler``, ``run_cached`` and the bench
bodies use a shared remote store exactly as they use the local directory
(``REPRO_CACHE_DIR=http://host:port`` switches the default).  Every fetch
is digest-verified twice: the body checksum against the transfer header,
and the artifact's embedded ``"digest"`` field against the requested key.
A mismatch quarantines the object server-side (so the next get misses and
the job simply re-executes) and raises :class:`StoreIntegrityError`.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from ..cache import (
    ArtifactStore,
    CacheStats,
    ResultCache,
    StoreIntegrityError,
    content_sha256,
)
from .wire import (
    BackgroundServer,
    BadRequest,
    JsonRequestHandler,
    WireError,
    request,
    request_json,
)

__all__ = ["HTTPStore", "ArtifactStoreServer", "CHECKSUM_HEADER"]

CHECKSUM_HEADER = "X-Repro-SHA256"


# -- server ------------------------------------------------------------------


class _StoreHandler(JsonRequestHandler):
    @property
    def cache(self) -> ResultCache:
        return self.server.service.cache  # type: ignore[attr-defined]

    def _digest(self, prefix: str) -> Optional[str]:
        if not self.path.startswith(prefix):
            return None
        digest = self.path[len(prefix):]
        try:
            self.cache._object_path(digest)
        except ValueError:
            self.send_json(400, {"error": f"malformed digest {digest!r}"})
            return None
        return digest

    def do_GET(self) -> None:
        if self.path == "/health":
            # liveness stays open: probes and `fleet sweep` worker counts
            # must not need credentials
            self.send_json(200, {
                "status": "ok",
                "service": "repro-artifact-store",
                "objects": len(self.cache),
            })
            return
        if not self._authorized():
            return
        if self.path == "/stats":
            self.send_json(200, self.cache.describe())
            return
        digest = self._digest("/artifacts/")
        if digest is None:
            if not self.path.startswith("/artifacts/"):
                self.send_json(404, {"error": "unknown endpoint"})
            return
        data = self.cache.get(digest)
        if data is None:
            self.send_json(404, {"error": "not found", "digest": digest})
            return
        self.send_bytes(200, data, {CHECKSUM_HEADER: content_sha256(data)})

    def do_HEAD(self) -> None:
        if not self._authorized():
            return
        digest = self._digest("/artifacts/")
        if digest is None:
            return
        if self.cache.has(digest):
            self.send_bytes(200, b"", head_only=True)
        else:
            self.send_bytes(404, b"", head_only=True)

    def do_PUT(self) -> None:
        if not self._authorized():
            return
        digest = self._digest("/artifacts/")
        if digest is None:
            return
        try:
            data = self.read_body()
            if not data:
                raise BadRequest(400, "empty artifact upload")
        except BadRequest as exc:
            self.reject(exc)
            return
        claimed = self.headers.get(CHECKSUM_HEADER)
        if claimed and claimed != content_sha256(data):
            # a truncated or garbled upload must never be renamed into place
            self.send_json(400, {"error": "checksum mismatch on upload",
                                 "digest": digest})
            return
        self.cache.put(digest, data)
        self.send_json(201, {"stored": True, "digest": digest})

    def do_POST(self) -> None:
        if not self._authorized():
            return
        digest = self._digest("/quarantine/")
        if digest is None:
            if not self.path.startswith("/quarantine/"):
                self.send_json(404, {"error": "unknown endpoint"})
            return
        moved = self.cache.quarantine(digest)
        self.send_json(200, {"quarantined": moved, "digest": digest})


class ArtifactStoreServer(BackgroundServer):
    """``repro fleet store`` -- serve a local cache directory over HTTP."""

    def __init__(self, root=None, *, host: str = "127.0.0.1", port: int = 0,
                 token: Optional[str] = None) -> None:
        super().__init__(host, port, token=token)
        self.cache = ResultCache(root)

    def _handler_class(self):
        return _StoreHandler


# -- client ------------------------------------------------------------------


class HTTPStore(ArtifactStore):
    """:class:`ArtifactStore` against a remote store server.

    ``root`` mirrors :attr:`ResultCache.root` as the store's printable
    location (the URL), so code that propagates ``REPRO_CACHE_DIR`` via
    ``str(cache.root)`` is backend-indifferent.  ``stats`` count this
    client's session (each worker and the driver see their own hit rate);
    the server's cumulative view is ``describe()``.
    """

    def __init__(self, url: str, *, timeout: float = 30.0, retries: int = 2) -> None:
        url = url.rstrip("/")
        if not url.startswith(("http://", "https://")):
            url = f"http://{url}"
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.stats = CacheStats()

    @property
    def root(self) -> str:
        return self.url

    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 headers: Optional[dict] = None) -> tuple[int, dict, bytes]:
        return request(
            self.url, method, path, body, headers,
            timeout=self.timeout, retries=self.retries,
        )

    # -- the store protocol --------------------------------------------------

    def get(self, digest: str) -> Optional[bytes]:
        status, headers, data = self._request("GET", f"/artifacts/{digest}")
        if status == 404:
            self.stats.misses += 1
            return None
        if status != 200:
            raise WireError(f"store GET {digest[:12]} -> HTTP {status}")
        self._verify(digest, headers, data)
        self.stats.hits += 1
        return data

    def put(self, digest: str, data: bytes) -> None:
        status, _, body = self._request(
            "PUT", f"/artifacts/{digest}", data,
            {CHECKSUM_HEADER: content_sha256(data)},
        )
        if status not in (200, 201):
            raise WireError(
                f"store PUT {digest[:12]} -> HTTP {status}: {body[:200]!r}"
            )
        self.stats.puts += 1

    def has(self, digest: str) -> bool:
        status, _, _ = self._request("HEAD", f"/artifacts/{digest}")
        return status == 200

    def describe(self) -> dict:
        status, payload = request_json(
            self.url, "GET", "/stats", timeout=self.timeout, retries=self.retries
        )
        info = payload if status == 200 else {}
        return {
            "root": self.url,
            "objects": info.get("objects", 0),
            "size_bytes": info.get("size_bytes", 0),
            "server": info,
            **self.stats.as_dict(),
        }

    def health(self) -> dict:
        status, payload = request_json(
            self.url, "GET", "/health", timeout=self.timeout, retries=self.retries
        )
        if status != 200:
            raise WireError(f"store health -> HTTP {status}")
        return payload

    # -- integrity -----------------------------------------------------------

    def _verify(self, digest: str, headers: dict, data: bytes) -> None:
        """Transfer checksum + embedded spec digest; quarantine on mismatch."""
        detail = None
        claimed = headers.get(CHECKSUM_HEADER)
        if claimed and claimed != content_sha256(data):
            detail = "transfer checksum mismatch"
        else:
            # every stored artifact is canonical JSON with (for run
            # artifacts) its spec digest embedded: a body that no longer
            # parses, or whose embedded digest drifted from its key, is
            # on-disk corruption on the server
            try:
                embedded = json.loads(data.decode())
            except (ValueError, UnicodeDecodeError):
                detail = "body is not valid JSON"
                embedded = None
            if (
                detail is None
                and isinstance(embedded, dict)
                and embedded.get("digest") is not None
                and embedded["digest"] != digest
            ):
                detail = (
                    f"embedded digest {str(embedded['digest'])[:12]} "
                    "!= requested key"
                )
        if detail is None:
            return
        try:
            self._request("POST", f"/quarantine/{digest}")
        except WireError:  # pragma: no cover - server vanished mid-fetch
            pass
        self.stats.misses += 1
        raise StoreIntegrityError(digest, detail)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HTTPStore {self.url}>"
