"""Archive downloads for released map and spectrum products.

URLs are config-driven so archive reorganizations need no code change.
The config grammar is one ``key = value`` per line; blank lines and lines
starting with ``#`` are ignored; values run to the end of the line.
Recognised keys are ``map_url`` (a template with ``{foreground}`` and
``{nside}`` fields) and ``powerspectrum_url_<k>`` for the numbered
spectrum products.  Defaults point at the public archives hosting the
release-2 component-separated maps and the spectrum tables.
"""

import os
import shutil
import urllib.error
import urllib.request

import numpy as np

from .errors import DomainError, FormatError, NetworkError
from . import fits as fitsio
from .geostat import D_L, PowerSpectrum, write_spectrum_csv

FOREGROUNDS = ("commander", "nilc", "sevem", "smica")
NSIDES = (1024, 2048)

DEFAULT_CONFIG = {
    "map_url": ("https://irsa.ipac.caltech.edu/data/Planck/release_2/"
                "all-sky-maps/maps/component-maps/cmb/"
                "COM_CMB_IQU-{foreground}_{nside}_R2.02_full.fits"),
    "powerspectrum_url_1": ("https://pla.esac.esa.int/pla/aio/"
                            "product-action?COSMOLOGY.FILE_ID="
                            "COM_PowerSpect_CMB-TT-full_R3.01.txt"),
}

def read_config(path=None):
    """Defaults overlaid with ``key = value`` pairs from ``path``."""
    config = dict(DEFAULT_CONFIG)
    if path is None:
        return config
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError("config line %d is not 'key = value'" % lineno)
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def map_url(config, foreground, nside):
    if foreground not in FOREGROUNDS:
        raise DomainError("foreground must be one of %s" % (FOREGROUNDS,))
    if nside not in NSIDES:
        raise DomainError("nside must be one of %s" % (NSIDES,))
    return config["map_url"].format(foreground=foreground, nside=nside)


def spectrum_url(config, link):
    key = "powerspectrum_url_%d" % link
    if key not in config:
        raise DomainError("no spectrum product %d configured" % link)
    return config[key]


def _stream(url, out_path):
    tmp = out_path + ".part"
    try:
        with urllib.request.urlopen(url) as response, open(tmp, "wb") as fh:
            shutil.copyfileobj(response, fh, 1 << 20)
    except (urllib.error.URLError, OSError) as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise NetworkError("download failed: %s" % exc)
    shutil.move(tmp, out_path)


def download_map(foreground, nside, out_path, config=None, offline=False):
    """Fetch a released full-sky map and check it opens as a map source."""
    config = config or read_config()
    url = map_url(config, foreground, nside)
    if offline:
        raise NetworkError("offline mode: not fetching %s" % url)
    _stream(url, out_path)
    try:
        src = fitsio.open_map(out_path)
    except FormatError as exc:
        os.remove(out_path)
        raise NetworkError("downloaded file is not a readable map: %s" % exc)
    return src


def reduce_spectrum_text(text):
    """Parse a released spectrum table (whitespace columns ``l  D_l ...``,
    comment lines allowed) into a :class:`PowerSpectrum`."""
    ells = []
    values = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("#", "%", ";")):
            continue
        parts = line.split()
        try:
            ell = int(float(parts[0]))
            val = float(parts[1])
        except (ValueError, IndexError):
            continue
        ells.append(ell)
        values.append(val)
    if not ells:
        raise FormatError("no spectrum rows found")
    return PowerSpectrum(np.array(ells), np.array(values), D_L)


def download_power_spectrum(link, out_path, config=None, offline=False):
    """Fetch a spectrum product and reduce it to the (l, D_l) CSV format."""
    config = config or read_config()
    url = spectrum_url(config, link)
    if offline:
        raise NetworkError("offline mode: not fetching %s" % url)
    raw = out_path + ".raw"
    _stream(url, raw)
    try:
        with open(raw, "r", errors="replace") as fh:
            ps = reduce_spectrum_text(fh.read())
    except FormatError as exc:
        raise NetworkError("downloaded file is not a spectrum table: %s" % exc)
    finally:
        if os.path.exists(raw):
            os.remove(raw)
    write_spectrum_csv(ps, out_path)
    return ps
