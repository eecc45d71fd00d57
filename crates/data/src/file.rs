//! The Parsl `File` object: a location-independent file reference.

wire::codec! {
    /// Access protocol for a [`File`] (§4.5: "Parsl files can be defined
    /// either locally or using one of three data access protocols: HTTP, FTP,
    /// and Globus").
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Scheme {
        /// A path on the submitting machine / shared filesystem.
        Local,
        /// HTTP(S) download, executed as a regular task.
        Http,
        /// FTP download, executed as a regular task.
        Ftp,
        /// Globus third-party transfer, executed by the data manager.
        Globus,
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scheme::Local => "local",
            Scheme::Http => "http",
            Scheme::Ftp => "ftp",
            Scheme::Globus => "globus",
        };
        f.write_str(s)
    }
}

wire::codec! {
    /// A file reference that apps exchange instead of raw paths, keeping
    /// programs location-independent.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct File {
        /// How to reach the file.
        pub scheme: Scheme,
        /// Host/endpoint part (empty for local files).
        pub host: String,
        /// Path (or URL path) of the file.
        pub path: String,
    }
}

impl File {
    /// Parse a URL-ish reference: `http://host/path`, `ftp://host/path`,
    /// `globus://endpoint/path`, `file://[host]/path`, or a bare local
    /// path.
    pub fn parse(url: &str) -> File {
        let (scheme, rest) = if let Some(r) = url.strip_prefix("http://") {
            (Scheme::Http, r)
        } else if let Some(r) = url.strip_prefix("https://") {
            (Scheme::Http, r)
        } else if let Some(r) = url.strip_prefix("ftp://") {
            (Scheme::Ftp, r)
        } else if let Some(r) = url.strip_prefix("globus://") {
            (Scheme::Globus, r)
        } else if let Some(r) = url.strip_prefix("file://") {
            // RFC 8089 forms: `file:///path` has an empty authority and
            // `file://host/path` names one. Either way the file is
            // reachable without a transfer, so both map to Local (the
            // host survives for display only).
            let (host, path) = match r.strip_prefix('/') {
                Some(p) => (String::new(), format!("/{p}")),
                None => match r.split_once('/') {
                    Some((h, p)) => (h.to_string(), format!("/{p}")),
                    None => (r.to_string(), "/".to_string()),
                },
            };
            return File {
                scheme: Scheme::Local,
                host,
                path,
            };
        } else {
            return File {
                scheme: Scheme::Local,
                host: String::new(),
                path: url.to_string(),
            };
        };
        match rest.split_once('/') {
            Some((host, path)) => File {
                scheme,
                host: host.to_string(),
                path: format!("/{path}"),
            },
            None => File {
                scheme,
                host: rest.to_string(),
                path: "/".to_string(),
            },
        }
    }

    /// The file's base name.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Full URL form.
    pub fn url(&self) -> String {
        match self.scheme {
            Scheme::Local => self.path.clone(),
            _ => format!("{}://{}{}", self.scheme, self.host, self.path),
        }
    }

    /// True when no transfer is needed.
    pub fn is_local(&self) -> bool {
        self.scheme == Scheme::Local
    }
}

impl std::fmt::Display for File {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.url())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_roundtrip() {
        for u in [
            "http://h/p/q.txt",
            "ftp://h/z.bin",
            "globus://ep/deep/tree/f.h5",
        ] {
            assert_eq!(File::parse(u).url(), u);
        }
        assert_eq!(File::parse("/a/b/c").url(), "/a/b/c");
    }

    #[test]
    fn https_maps_to_http_scheme() {
        let f = File::parse("https://secure/d.tar");
        assert_eq!(f.scheme, Scheme::Http);
        assert_eq!(f.host, "secure");
    }

    #[test]
    fn hostname_only_url() {
        let f = File::parse("http://justhost");
        assert_eq!(f.host, "justhost");
        assert_eq!(f.path, "/");
    }

    #[test]
    fn file_url_empty_authority_is_local() {
        let f = File::parse("file:///data/ref/hg38.fa");
        assert_eq!(f.scheme, Scheme::Local);
        assert_eq!(f.host, "");
        assert_eq!(f.path, "/data/ref/hg38.fa");
        assert!(f.is_local());
        assert_eq!(f.url(), "/data/ref/hg38.fa");
    }

    #[test]
    fn file_url_with_host_is_local() {
        let f = File::parse("file://nfs01/scratch/x.bin");
        assert_eq!(f.scheme, Scheme::Local);
        assert_eq!(f.host, "nfs01");
        assert_eq!(f.path, "/scratch/x.bin");
        assert!(f.is_local());
        assert_eq!(f.name(), "x.bin");
    }

    #[test]
    fn name_is_basename() {
        assert_eq!(File::parse("http://h/a/b/c.fastq").name(), "c.fastq");
        assert_eq!(File::parse("/x/y.z").name(), "y.z");
    }
}
