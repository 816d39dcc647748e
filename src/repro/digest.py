"""SHA-1 for the package's fingerprints, without loading OpenSSL.

Replica digests, the cluster ring's positions and path-table fingerprints
hash a few hundred bytes at a time with SHA-1.  ``import hashlib`` loads
``_hashlib`` and with it OpenSSL's libcrypto (about 4 MiB resident), which
every forked shard worker and cluster node would then carry.  CPython's
built-in ``_sha1`` gives the same bytes; :mod:`hashlib` is the fallback
only where the interpreter was built without it.
"""

from __future__ import annotations

__all__ = ["sha1"]


def _constructor():
    """CPython's built-in SHA-1, else :func:`hashlib.sha1`."""
    try:
        from _sha1 import sha1 as constructor
    except ImportError:  # an interpreter built without its own SHA-1
        from hashlib import sha1 as constructor
    return constructor


#: ``sha1(data=b"")`` -> a hash object with ``update``/``digest``/``hexdigest``.
sha1 = _constructor()
